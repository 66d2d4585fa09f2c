/// \file test_io_corrupt.cpp
/// \brief Corrupt-input coverage for every binary reader: truncation at
/// several depths and single-bit rot must produce a clean structured
/// IoError — never a crash, a hang, or a silently wrong tensor — and the
/// atomic-write path must leave the previous file intact when a write
/// fails mid-stream.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/cp_model.hpp"
#include "core/tensor.hpp"
#include "io/checkpoint.hpp"
#include "io/tensor_io.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace dmtk {
namespace {

namespace fs = std::filesystem;

class IoCorruptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dmtk_corrupt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    fault::disarm_all();
  }
  void TearDown() override {
    fault::disarm_all();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::vector<char> slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& p, const std::vector<char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One reader under attack: truncate the file at several depths and flip
/// one bit at several offsets; every mutation must throw IoError.
void attack(const std::string& label, const std::string& p,
            const std::function<void(const std::string&)>& read) {
  const std::vector<char> good = slurp(p);
  ASSERT_GT(good.size(), 32u) << label;
  // Sanity: the pristine file reads back.
  ASSERT_NO_THROW(read(p)) << label;

  // Truncation at the header, mid-payload, and just-shy-of-complete.
  for (const std::size_t keep :
       {std::size_t{4}, good.size() / 2, good.size() - 1}) {
    std::vector<char> cut(good.begin(),
                          good.begin() + static_cast<std::ptrdiff_t>(keep));
    spit(p, cut);
    EXPECT_THROW(read(p), io::IoError)
        << label << ": truncated to " << keep << " of " << good.size();
  }

  // Single-bit rot in the magic, the extents, and the payload. The CRC
  // footer catches payload rot that header validation cannot.
  for (const std::size_t at :
       {std::size_t{2}, std::size_t{12}, good.size() / 2,
        good.size() - 30}) {
    std::vector<char> rot = good;
    rot[at] = static_cast<char>(rot[at] ^ 0x10);
    spit(p, rot);
    EXPECT_THROW(read(p), io::IoError)
        << label << ": bit flipped at offset " << at;
  }

  spit(p, good);  // restore for any follow-up
}

Tensor small_tensor() {
  Rng rng(99);
  return Tensor::random_uniform({5, 4, 3}, rng);
}

/// 48x40x36 f64 (~550 KB): its payload is several times FileReader's
/// 64 KiB buffer, so the body read takes the direct-into-caller path and
/// its piecewise CRC fold.
constexpr index_t kLargeDims[] = {48, 40, 36};

template <typename T>
TensorT<T> large_tensor() {
  Rng rng(23);
  return TensorT<T>::random_uniform(
      {kLargeDims[0], kLargeDims[1], kLargeDims[2]}, rng);
}

TEST_F(IoCorruptTest, TensorF64SurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("x.dten");
  io::write_tensor(p, small_tensor());
  attack("tensor/f64", p, [](const std::string& f) {
    (void)io::read_tensor(f);
  });
}

TEST_F(IoCorruptTest, TensorF32SurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("x32.dten");
  Rng rng(5);
  io::write_tensor(p, TensorF::random_uniform({6, 5, 4}, rng));
  attack("tensor/f32", p, [](const std::string& f) {
    (void)io::read_tensor_as<float>(f);
  });
}

TEST_F(IoCorruptTest, LargeTensorF64SurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("big.dten");
  const Tensor X = large_tensor<double>();
  io::write_tensor(p, X);
  attack("tensor/f64-large", p, [](const std::string& f) {
    (void)io::read_tensor(f);
  });
  const Tensor back = io::read_tensor(p);
  ASSERT_EQ(back.numel(), X.numel());
  for (index_t i = 0; i < X.numel(); ++i) ASSERT_EQ(back[i], X[i]);
}

TEST_F(IoCorruptTest, LargeTensorF32ReadAsF64SurvivesCorruption) {
  // Widening read: the payload streams through read_converting's staging
  // chunks, each one a direct read.
  const std::string p = path("big32.dten");
  const TensorF X = large_tensor<float>();
  io::write_tensor(p, X);
  attack("tensor/f32-as-f64-large", p, [](const std::string& f) {
    (void)io::read_tensor_as<double>(f);
  });
  const Tensor back = io::read_tensor_as<double>(p);
  ASSERT_EQ(back.numel(), X.numel());
  for (index_t i = 0; i < X.numel(); ++i)
    ASSERT_EQ(back[i], static_cast<double>(X[i]));
}

TEST_F(IoCorruptTest, MatrixSurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("m.dmat");
  Rng rng(11);
  io::write_matrix(p, Matrix::random_uniform(7, 6, rng));
  attack("matrix", p, [](const std::string& f) {
    (void)io::read_matrix(f);
  });
}

TEST_F(IoCorruptTest, KtensorSurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("k.dktn");
  Rng rng(13);
  const std::vector<index_t> dims{6, 5, 4};
  Ktensor K = Ktensor::random(dims, 3, rng);
  io::write_ktensor(p, K);
  attack("ktensor", p, [](const std::string& f) {
    (void)io::read_ktensor(f);
  });
}

TEST_F(IoCorruptTest, KtensorF32SurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("k32.dktn");
  Rng rng(19);
  const std::vector<index_t> dims{6, 5, 4};
  const KtensorF K = KtensorF::random(dims, 3, rng);
  io::write_ktensor(p, K);
  // Both the native-float read and the widening double read must fail
  // structurally, never by reading garbage, under the same attacks.
  attack("ktensor/f32", p, [](const std::string& f) {
    (void)io::read_ktensor_as<float>(f);
  });
  attack("ktensor/f32-as-f64", p, [](const std::string& f) {
    (void)io::read_ktensor_as<double>(f);
  });
}

TEST_F(IoCorruptTest, CheckpointSurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("c.dckp");
  Rng rng(17);
  io::Checkpoint cp;
  cp.options_hash = 0xDEADBEEFu;
  cp.completed_sweeps = 7;
  cp.fit_old = 0.5;
  const std::vector<index_t> dims{6, 5, 4};
  cp.model = Ktensor::random(dims, 3, rng);
  io::write_checkpoint(p, cp);
  attack("checkpoint", p, [](const std::string& f) {
    (void)io::read_checkpoint<double>(f);
  });
}

TEST_F(IoCorruptTest, TnsTruncationIsRejectedWithLineNumbers) {
  // The text reader has its own (line-oriented) validation; a file cut
  // mid-entry must fail with an error naming the line, not parse short.
  const std::string p = path("s.tns");
  {
    std::ofstream out(p);
    out << "3\n4 5 6\n1 1 1 2.5\n2 3 4 -1.0\n";
  }
  const std::vector<char> good = slurp(p);
  std::vector<char> cut(good.begin(), good.end() - 6);
  spit(p, cut);
  try {
    (void)io::read_tns(p);
    FAIL() << "truncated .tns parsed";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(":"), std::string::npos);
  }
}

TEST_F(IoCorruptTest, LegacyFooterlessFilesStillRead) {
  // Seed-era files have no CRC footer; readers must accept them (skipping
  // verification) so an upgrade does not orphan existing data.
  const std::string p = path("legacy.dten");
  const Tensor X = small_tensor();
  io::write_tensor(p, X);
  std::vector<char> bytes = slurp(p);
  ASSERT_GT(bytes.size(), 24u);
  bytes.resize(bytes.size() - 24);  // strip the footer
  spit(p, bytes);
  const Tensor back = io::read_tensor(p);
  ASSERT_EQ(back.numel(), X.numel());
  for (index_t i = 0; i < X.numel(); ++i) EXPECT_EQ(back[i], X[i]);
}

TEST_F(IoCorruptTest, CorruptHeaderCannotTriggerHugeAllocation) {
  // A flipped extent must be caught by the payload-size pre-check, not
  // by an attempted multi-terabyte allocation.
  const std::string p = path("huge.dten");
  io::write_tensor(p, small_tensor());
  std::vector<char> bytes = slurp(p);
  // Payload layout: magic(8) order(8) dims... — blow up dim 0.
  bytes[16] = static_cast<char>(0xFF);
  bytes[20] = static_cast<char>(0x7F);
  spit(p, bytes);
  EXPECT_THROW((void)io::read_tensor(p), io::IoError);
}

TEST_F(IoCorruptTest, FailedWriteLeavesPreviousFileIntactAndNoTemps) {
  const std::string p = path("keep.dten");
  const Tensor X = small_tensor();
  io::write_tensor(p, X);
  const std::vector<char> before = slurp(p);

  // Arm the write fault: the next write must fail like ENOSPC...
  fault::arm("io.write", 1.0, 3);
  Rng rng(21);
  EXPECT_THROW(io::write_tensor(p, Tensor::random_uniform({8, 8, 8}, rng)),
               io::IoError);
  fault::disarm_all();

  // ...and the previous bytes are untouched: the temp was discarded
  // before any rename could happen.
  EXPECT_EQ(slurp(p), before);
  int stray = 0;
  for (const auto& ent : fs::directory_iterator(dir_)) {
    if (ent.path().filename().string().find(".tmp.") != std::string::npos) {
      ++stray;
    }
  }
  EXPECT_EQ(stray, 0) << "fault-aborted write left a temp file behind";
  // The target still reads cleanly.
  const Tensor back = io::read_tensor(p);
  EXPECT_EQ(back.numel(), X.numel());
}

TEST_F(IoCorruptTest, ShortReadFaultDrivesTheTruncationBranch) {
  // The small file is read through the buffer; the large one drains the
  // buffer and reads the rest of its body directly.
  const std::string small = path("short.dten");
  const std::string large = path("short-large.dten");
  io::write_tensor(small, small_tensor());
  io::write_tensor(large, large_tensor<double>());
  for (const std::string& p : {small, large}) {
    fault::arm("io.read.short", 1.0, 9);
    try {
      (void)io::read_tensor(p);
      FAIL() << p << ": short-read fault did not surface";
    } catch (const io::IoError& e) {
      // The injected short read takes the REAL truncation branch, so the
      // message carries the offset diagnostics that branch always emits.
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    }
    fault::disarm_all();
    EXPECT_NO_THROW((void)io::read_tensor(p));
  }
}

TEST_F(IoCorruptTest, ShortReadFaultIsConsultedOnDirectReads) {
  // At rate 0.5 some seeds let the buffered header read through and fail
  // a later direct read: the reported offset then lies past the first
  // buffer's worth. Every armed run either reads the tensor whole or
  // throws the truncation error; none returns partial data.
  const std::string p = path("direct.dten");
  const Tensor X = large_tensor<double>();
  io::write_tensor(p, X);
  const std::string marker = "unexpected end of data at offset ";
  bool failed_past_buffer = false;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    fault::arm("io.read.short", 0.5, seed);
    try {
      const Tensor back = io::read_tensor(p);
      ASSERT_EQ(back.numel(), X.numel());
      for (index_t i = 0; i < X.numel(); ++i) ASSERT_EQ(back[i], X[i]);
    } catch (const io::IoError& e) {
      const std::string what = e.what();
      const std::size_t at = what.find(marker);
      ASSERT_NE(at, std::string::npos) << what;
      const std::uint64_t offset =
          std::stoull(what.substr(at + marker.size()));
      if (offset > (std::uint64_t{1} << 16)) failed_past_buffer = true;
    }
    fault::disarm_all();
  }
  EXPECT_TRUE(failed_past_buffer)
      << "no seed failed a read past the first 64 KiB";
}

}  // namespace
}  // namespace dmtk
