// Binary serialization round trips, format validation, and CSV export.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "io/checked_io.hpp"
#include "io/tensor_io.hpp"
#include "test_helpers.hpp"

namespace dmtk::io {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dmtk_io_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path path(const char* name) const { return dir_ / name; }

  fs::path dir_;
};

TEST_F(IoTest, TensorRoundTripBitExact) {
  Rng rng(1);
  Tensor X = Tensor::random_uniform({3, 5, 4}, rng);
  write_tensor(path("x.dten"), X);
  Tensor Y = read_tensor(path("x.dten"));
  ASSERT_EQ(Y.order(), 3);
  EXPECT_DOUBLE_EQ(X.max_abs_diff(Y), 0.0);
}

TEST_F(IoTest, MatrixRoundTripBitExact) {
  Rng rng(2);
  Matrix M = Matrix::random_normal(7, 3, rng);
  write_matrix(path("m.dmat"), M);
  Matrix R = read_matrix(path("m.dmat"));
  EXPECT_DOUBLE_EQ(M.max_abs_diff(R), 0.0);
}

TEST_F(IoTest, KtensorRoundTrip) {
  Rng rng(3);
  Ktensor K = Ktensor::random(std::array<index_t, 3>{4, 5, 6}, 2, rng);
  K.lambda = {3.5, 0.25};
  write_ktensor(path("k.dktn"), K);
  Ktensor R = read_ktensor(path("k.dktn"));
  ASSERT_EQ(R.order(), 3);
  ASSERT_EQ(R.rank(), 2);
  EXPECT_DOUBLE_EQ(R.lambda[0], 3.5);
  EXPECT_DOUBLE_EQ(R.lambda[1], 0.25);
  for (index_t n = 0; n < 3; ++n) {
    EXPECT_DOUBLE_EQ(K.factors[static_cast<std::size_t>(n)].max_abs_diff(
                         R.factors[static_cast<std::size_t>(n)]),
                     0.0);
  }
}

TEST_F(IoTest, KtensorWithoutLambdaGetsOnes) {
  Rng rng(4);
  Ktensor K = Ktensor::random(std::array<index_t, 2>{3, 4}, 2, rng);
  K.lambda.clear();
  write_ktensor(path("k.dktn"), K);
  Ktensor R = read_ktensor(path("k.dktn"));
  ASSERT_EQ(R.lambda.size(), 2u);
  EXPECT_DOUBLE_EQ(R.lambda[0], 1.0);
}

TEST_F(IoTest, WrongMagicRejected) {
  Rng rng(5);
  Matrix M = Matrix::random_uniform(2, 2, rng);
  write_matrix(path("m.dmat"), M);
  EXPECT_THROW(read_tensor(path("m.dmat")), IoError);
  EXPECT_THROW(read_ktensor(path("m.dmat")), IoError);
}

TEST_F(IoTest, TruncatedFileRejected) {
  Rng rng(6);
  Tensor X = Tensor::random_uniform({10, 10}, rng);
  write_tensor(path("x.dten"), X);
  fs::resize_file(path("x.dten"), 64);  // chop the payload
  EXPECT_THROW(read_tensor(path("x.dten")), IoError);
}

TEST_F(IoTest, GarbageFileRejected) {
  std::ofstream f(path("junk.bin"), std::ios::binary);
  f << "this is not a dmtk file at all";
  f.close();
  EXPECT_THROW(read_tensor(path("junk.bin")), IoError);
}

TEST_F(IoTest, MissingFileRejected) {
  EXPECT_THROW(read_tensor(path("does_not_exist")), IoError);
  EXPECT_THROW(read_matrix(path("does_not_exist")), IoError);
}

TEST_F(IoTest, CsvExportParsesBack) {
  Matrix M(2, 3);
  M(0, 0) = 1.5;
  M(0, 1) = -2.0;
  M(0, 2) = 0.125;
  M(1, 0) = 1e-7;
  M(1, 1) = 3.0;
  M(1, 2) = -4.5;
  export_csv(path("m.csv"), M);
  std::ifstream f(path("m.csv"));
  std::string line1, line2, extra;
  ASSERT_TRUE(std::getline(f, line1));
  ASSERT_TRUE(std::getline(f, line2));
  EXPECT_FALSE(std::getline(f, extra));
  double a, b, c;
  ASSERT_EQ(std::sscanf(line1.c_str(), "%lf,%lf,%lf", &a, &b, &c), 3);
  EXPECT_DOUBLE_EQ(a, 1.5);
  EXPECT_DOUBLE_EQ(b, -2.0);
  EXPECT_DOUBLE_EQ(c, 0.125);
  ASSERT_EQ(std::sscanf(line2.c_str(), "%lf,%lf,%lf", &a, &b, &c), 3);
  EXPECT_DOUBLE_EQ(a, 1e-7);
}

TEST_F(IoTest, LargeTensorRoundTrip) {
  Rng rng(7);
  Tensor X = Tensor::random_uniform({32, 32, 32}, rng);
  write_tensor(path("big.dten"), X);
  Tensor Y = read_tensor(path("big.dten"));
  EXPECT_DOUBLE_EQ(X.max_abs_diff(Y), 0.0);
}

// ---------------------------------------------------------------------------
// Parallel direct reads.
// ---------------------------------------------------------------------------

/// Columns of a 1024 x cols tensor of T whose direct read (the body less
/// what FileReader's 64 KiB buffer serves after the 32-byte 2-way header)
/// is just under (`above` false) or just over `chunks` parallel chunks.
template <typename T>
index_t cols_around_cut(std::size_t chunks, bool above) {
  const std::size_t col_bytes = 1024 * sizeof(T);
  const std::size_t buffered = (std::size_t{1} << 16) - 32;
  const std::size_t cut = chunks * FileReader::kParallelChunkBytes;
  const std::size_t cols = (cut + buffered) / col_bytes;
  return static_cast<index_t>(above ? cols + 1 : cols - 1);
}

template <typename T>
void expect_same_bits(const TensorT<T>& a, const TensorT<T>& b) {
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(T)),
            0);
}

template <typename T>
void check_parallel_reads(const fs::path& p) {
  // Just below two chunks the read stays on one thread; just above it
  // splits in two; just past three chunks a team of 3 splits 97
  // pieces unevenly. Every team size gives the one-thread read's bits.
  for (const auto& [chunks, above] :
       {std::pair{2, false}, std::pair{2, true}, std::pair{3, true}}) {
    Rng rng(static_cast<std::uint64_t>(40 + chunks + (above ? 1 : 0)));
    const TensorT<T> X = TensorT<T>::random_uniform(
        {1024, cols_around_cut<T>(chunks, above)}, rng);
    write_tensor(p, X);
    const TensorT<T> one = read_tensor_as<T>(p, 1);
    expect_same_bits(one, X);
    for (const int threads : {0, 2, 3, 7}) {
      SCOPED_TRACE(::testing::Message() << "chunks " << chunks << ", above "
                                        << above << ", threads " << threads);
      expect_same_bits(read_tensor_as<T>(p, threads), one);
    }
  }
}

TEST_F(IoTest, ParallelReadAroundTheCutOffMatchesOneThreadF64) {
  check_parallel_reads<double>(path("cut64.dten"));
}

TEST_F(IoTest, ParallelReadAroundTheCutOffMatchesOneThreadF32) {
  check_parallel_reads<float>(path("cut32.dten"));
}

// ---------------------------------------------------------------------------
// FROSTT-style .tns sparse text files.
// ---------------------------------------------------------------------------

void write_text(const fs::path& p, const char* text) {
  std::ofstream f(p);
  f << text;
}

TEST_F(IoTest, TnsRoundTripPreservesEntriesBitExact) {
  Rng rng(8);
  const sparse::SparseTensor S =
      sparse::SparseTensor::random({6, 9, 4}, 50, rng);
  write_tns(path("s.tns"), S);
  const sparse::SparseTensor T = read_tns(path("s.tns"));
  ASSERT_EQ(T.order(), 3);
  ASSERT_EQ(T.nnz(), S.nnz());
  // Mode sizes are coordinate maxima, so they can shrink relative to the
  // declared dims — but never grow.
  for (index_t n = 0; n < 3; ++n) EXPECT_LE(T.dim(n), S.dim(n));
  for (index_t k = 0; k < S.nnz(); ++k) {
    for (index_t n = 0; n < 3; ++n) EXPECT_EQ(T.coord(n, k), S.coord(n, k));
    EXPECT_EQ(T.value(k), S.value(k));  // %.17g is lossless
  }
}

TEST_F(IoTest, TnsDuplicatesSurviveTheRoundTrip) {
  sparse::SparseTensor S({3, 3});
  const std::array<index_t, 2> idx{1, 2};
  S.push_back(idx, 2.0);
  S.push_back(idx, 0.5);
  write_tns(path("dup.tns"), S);
  const sparse::SparseTensor T = read_tns(path("dup.tns"));
  EXPECT_EQ(T.nnz(), 2);  // duplicates preserved, still additive
  EXPECT_DOUBLE_EQ(T.to_dense()(std::array<index_t, 2>{1, 2}), 2.5);
}

TEST_F(IoTest, TnsParsesCommentsBlanksAndOneBasedCoords) {
  write_text(path("c.tns"),
             "# a FROSTT-style file\n"
             "\n"
             "1 1 1 1.5\n"
             "  3 2 4   -2.25  # trailing comment\n");
  const sparse::SparseTensor S = read_tns(path("c.tns"));
  EXPECT_EQ(S.order(), 3);
  EXPECT_EQ(S.nnz(), 2);
  EXPECT_EQ(S.dim(0), 3);
  EXPECT_EQ(S.dim(1), 2);
  EXPECT_EQ(S.dim(2), 4);
  EXPECT_EQ(S.coord(0, 1), 2);  // 1-based in the file, 0-based in memory
  EXPECT_DOUBLE_EQ(S.value(1), -2.25);
}

TEST_F(IoTest, TnsMalformedInputsRejectedWithLineNumbers) {
  // Field-count mismatch against the first data line.
  write_text(path("m1.tns"), "1 1 1 1.0\n2 2 0.5\n");
  EXPECT_THROW(read_tns(path("m1.tns")), IoError);
  // Non-numeric coordinate.
  write_text(path("m2.tns"), "1 x 1 1.0\n");
  EXPECT_THROW(read_tns(path("m2.tns")), IoError);
  // Non-numeric value.
  write_text(path("m3.tns"), "1 1 1 abc\n");
  EXPECT_THROW(read_tns(path("m3.tns")), IoError);
  // Zero (or negative) coordinate: the format is 1-based.
  write_text(path("m4.tns"), "0 1 1 1.0\n");
  EXPECT_THROW(read_tns(path("m4.tns")), IoError);
  write_text(path("m5.tns"), "1 -2 1 1.0\n");
  EXPECT_THROW(read_tns(path("m5.tns")), IoError);
  // A value-only line (no coordinates).
  write_text(path("m6.tns"), "1.0\n");
  EXPECT_THROW(read_tns(path("m6.tns")), IoError);
  // Empty / comment-only files have no data to infer a shape from.
  write_text(path("m7.tns"), "");
  EXPECT_THROW(read_tns(path("m7.tns")), IoError);
  write_text(path("m8.tns"), "# nothing\n\n");
  EXPECT_THROW(read_tns(path("m8.tns")), IoError);
  // Coordinates that overflow long long (strtoll clamps with ERANGE) or
  // exceed the library's extent cap: either would otherwise turn into a
  // silently absurd shape request downstream.
  write_text(path("m9.tns"), "99999999999999999999999999 1 1 1.0\n");
  EXPECT_THROW(read_tns(path("m9.tns")), IoError);
  write_text(path("m10.tns"), "1 1099511627777 1 1.0\n");  // 2^40 + 1
  EXPECT_THROW(read_tns(path("m10.tns")), IoError);
  // The error message carries the offending line number.
  try {
    read_tns(path("m2.tns"));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(":1:"), std::string::npos);
  }
  for (const char* overflow_file : {"m9.tns", "m10.tns"}) {
    try {
      read_tns(path(overflow_file));
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(":1:"), std::string::npos)
          << overflow_file;
      EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
          << overflow_file;
    }
  }
  EXPECT_THROW(read_tns(path("absent.tns")), IoError);
}

TEST_F(IoTest, TnsRefusesToWriteAnEmptyTensor) {
  // The headerless format cannot represent nnz == 0 (read_tns would have
  // nothing to infer the shape from), so writing must fail loudly instead
  // of producing an unreadable file.
  const sparse::SparseTensor S({4, 5, 6});
  EXPECT_THROW(write_tns(path("empty.tns"), S), IoError);
  EXPECT_FALSE(fs::exists(path("empty.tns")));
}

}  // namespace
}  // namespace dmtk::io
