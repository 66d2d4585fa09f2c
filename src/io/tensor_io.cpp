#include "io/tensor_io.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "io/checked_io.hpp"

namespace dmtk::io {

namespace {

constexpr std::array<char, 8> kTensorMagic{'D', 'M', 'T', 'K',
                                           'T', 'E', 'N', '1'};
// fp32 payload kind: same header layout, floats in the body.
constexpr std::array<char, 8> kTensorMagicF32{'D', 'M', 'T', 'K',
                                              'T', 'E', 'N', 'f'};
constexpr std::array<char, 8> kMatrixMagic{'D', 'M', 'T', 'K',
                                           'M', 'A', 'T', '1'};
constexpr std::array<char, 8> kKtensorMagic{'D', 'M', 'T', 'K',
                                            'K', 'T', 'N', '1'};
// fp32 model payload kind: same header layout, floats in the body.
constexpr std::array<char, 8> kKtensorMagicF32{'D', 'M', 'T', 'K',
                                               'K', 'T', 'N', 'f'};

void write_magic(FileWriter& w, const std::array<char, 8>& magic) {
  w.write_bytes(magic.data(), magic.size());
}

void check_magic(FileReader& r, const std::array<char, 8>& magic,
                 const char* what) {
  if (r.payload_size() < magic.size())
    throw IoError(std::string("bad magic: not a dmtk ") + what + " file");
  std::array<char, 8> got{};
  r.read_bytes(got.data(), got.size());
  if (got != magic)
    throw IoError(std::string("bad magic: not a dmtk ") + what + " file");
}

/// Guard an element-count claim from a header against the bytes actually
/// present: a corrupt header must produce a structured error *before* the
/// reader commits to a (possibly terabyte-sized) allocation.
void check_payload_has(const FileReader& r, std::uint64_t count,
                       std::size_t elem_bytes, const char* what) {
  const std::uint64_t remaining = r.payload_size() - r.offset();
  if (count > remaining / elem_bytes)
    throw IoError("'" + std::string(what) + "' claims " +
                  std::to_string(count) + " elements (" +
                  std::to_string(elem_bytes) + " bytes each) but only " +
                  std::to_string(remaining) + " payload bytes remain at "
                  "offset " + std::to_string(r.offset()));
}

template <typename T>
void write_scalars(FileWriter& w, const T* p, std::size_t n) {
  w.write_bytes(p, n * sizeof(T));
}

template <typename T>
void read_scalars(FileReader& r, T* p, std::size_t n) {
  r.read_bytes(p, n * sizeof(T));
}

template <typename T>
void write_matrix_body(FileWriter& w, const MatrixT<T>& M) {
  w.write_u64(static_cast<std::uint64_t>(M.rows()));
  w.write_u64(static_cast<std::uint64_t>(M.cols()));
  write_scalars(w, M.data(), static_cast<std::size_t>(M.size()));
}

template <typename From, typename To>
void read_converting(FileReader& r, To* dst, std::size_t n);

/// Matrix body whose payload scalar is `From`, converted entrywise to the
/// requested scalar `To`. The size guard checks against the STORED width —
/// a truncated fp32 body must fail before the allocation, not after.
template <typename From, typename To>
MatrixT<To> read_matrix_body_as(FileReader& r) {
  const std::uint64_t rows64 = r.read_u64();
  const std::uint64_t cols64 = r.read_u64();
  const auto rows = static_cast<index_t>(rows64);
  const auto cols = static_cast<index_t>(cols64);
  if (rows < 0 || cols < 0 || rows > (index_t{1} << 40) ||
      cols > (index_t{1} << 40)) {
    throw IoError("implausible matrix extents");
  }
  if (cols64 != 0) {
    if (rows64 > (std::uint64_t{1} << 62) / cols64)
      throw IoError("implausible matrix extents");
    check_payload_has(r, rows64 * cols64, sizeof(From), "matrix body");
  }
  MatrixT<To> M(rows, cols);
  if constexpr (std::is_same_v<From, To>) {
    read_scalars(r, M.data(), static_cast<std::size_t>(M.size()));
  } else {
    read_converting<From>(r, M.data(), static_cast<std::size_t>(M.size()));
  }
  return M;
}

Matrix read_matrix_body(FileReader& r) {
  return read_matrix_body_as<double, double>(r);
}

/// Consume the tensor magic (either payload kind), returning the stored
/// scalar kind; throws for non-tensor files.
ScalarKind read_tensor_magic(FileReader& r) {
  if (r.payload_size() < 8)
    throw IoError("bad magic: not a dmtk tensor file");
  std::array<char, 8> got{};
  r.read_bytes(got.data(), got.size());
  if (got == kTensorMagic) return ScalarKind::F64;
  if (got == kTensorMagicF32) return ScalarKind::F32;
  throw IoError("bad magic: not a dmtk tensor file");
}

/// Read the extents header shared by both payload kinds.
std::vector<index_t> read_tensor_extents(FileReader& r) {
  const auto order = static_cast<index_t>(r.read_u64());
  if (order < 1 || order > 64) throw IoError("implausible tensor order");
  std::vector<index_t> dims(static_cast<std::size_t>(order));
  for (index_t& d : dims) {
    d = static_cast<index_t>(r.read_u64());
    if (d < 1 || d > (index_t{1} << 40)) {
      throw IoError("implausible tensor extent");
    }
  }
  return dims;
}

}  // namespace

template <typename T>
void write_tensor(const std::filesystem::path& path, const TensorT<T>& X) {
  FileWriter w(path, FileWriter::Footer::Crc32);
  write_magic(w, std::is_same_v<T, float> ? kTensorMagicF32 : kTensorMagic);
  w.write_u64(static_cast<std::uint64_t>(X.order()));
  for (index_t d : X.dims()) w.write_u64(static_cast<std::uint64_t>(d));
  write_scalars(w, X.data(), static_cast<std::size_t>(X.numel()));
  w.commit();
}

namespace {

/// Cross-precision payload read: stream the stored kind through a small
/// fixed-size staging buffer, converting per chunk — peak extra memory is
/// O(chunk), not O(tensor), which is what keeps the fp32 path's halved
/// footprint honest when narrowing a large f64 file.
template <typename From, typename To>
void read_converting(FileReader& r, To* dst, std::size_t n) {
  constexpr std::size_t kChunk = std::size_t{1} << 20;  // elements
  std::vector<From> stage(std::min(n, kChunk));
  std::size_t done = 0;
  while (done < n) {
    const std::size_t take = std::min(kChunk, n - done);
    read_scalars(r, stage.data(), take);
    for (std::size_t i = 0; i < take; ++i) {
      dst[done + i] = static_cast<To>(stage[i]);
    }
    done += take;
  }
}

}  // namespace

namespace detail {

/// The one caller of TensorT's unwritten-storage constructor: every entry
/// is written by the read below, or the read throws and the tensor is
/// dropped unseen.
struct TensorReader {
  template <typename T>
  static TensorT<T> unwritten(std::vector<index_t> dims) {
    return TensorT<T>(std::move(dims), typename TensorT<T>::Unwritten{});
  }
};

}  // namespace detail

template <typename T>
TensorT<T> read_tensor_as(const std::filesystem::path& path, int threads) {
  FileReader r(path);
  const ScalarKind kind = read_tensor_magic(r);
  const std::vector<index_t> dims = read_tensor_extents(r);
  std::uint64_t numel = 1;
  for (index_t d : dims) {
    if (d != 0 && numel > (std::uint64_t{1} << 62) / static_cast<std::uint64_t>(d))
      throw IoError("implausible tensor extent");
    numel *= static_cast<std::uint64_t>(d);
  }
  const std::size_t elem =
      kind == ScalarKind::F32 ? sizeof(float) : sizeof(double);
  check_payload_has(r, numel, elem, "tensor body");
  TensorT<T> X = detail::TensorReader::unwritten<T>(dims);
  const std::size_t n = static_cast<std::size_t>(X.numel());
  const bool want_f32 = std::is_same_v<T, float>;
  if ((kind == ScalarKind::F32) == want_f32) {
    r.read_bytes(X.data(), n * sizeof(T), threads);
  } else if (kind == ScalarKind::F32) {
    read_converting<float>(r, X.data(), n);
  } else {
    read_converting<double>(r, X.data(), n);
  }
  r.verify();
  return X;
}

Tensor read_tensor(const std::filesystem::path& path, int threads) {
  return read_tensor_as<double>(path, threads);
}

ScalarKind tensor_scalar_kind(const std::filesystem::path& path) {
  FileReader r(path);
  return read_tensor_magic(r);
}

std::vector<index_t> tensor_extents(const std::filesystem::path& path) {
  FileReader r(path);
  (void)read_tensor_magic(r);
  return read_tensor_extents(r);
}

template void write_tensor<double>(const std::filesystem::path&,
                                   const Tensor&);
template void write_tensor<float>(const std::filesystem::path&,
                                  const TensorF&);
template Tensor read_tensor_as<double>(const std::filesystem::path&, int);
template TensorF read_tensor_as<float>(const std::filesystem::path&, int);

void write_matrix(const std::filesystem::path& path, const Matrix& M) {
  FileWriter w(path, FileWriter::Footer::Crc32);
  write_magic(w, kMatrixMagic);
  write_matrix_body(w, M);
  w.commit();
}

Matrix read_matrix(const std::filesystem::path& path) {
  FileReader r(path);
  check_magic(r, kMatrixMagic, "matrix");
  Matrix M = read_matrix_body(r);
  r.verify();
  return M;
}

namespace {

/// Consume the ktensor magic (either payload kind), returning the stored
/// scalar kind; throws for non-ktensor files.
ScalarKind read_ktensor_magic(FileReader& r) {
  if (r.payload_size() < 8)
    throw IoError("bad magic: not a dmtk ktensor file");
  std::array<char, 8> got{};
  r.read_bytes(got.data(), got.size());
  if (got == kKtensorMagic) return ScalarKind::F64;
  if (got == kKtensorMagicF32) return ScalarKind::F32;
  throw IoError("bad magic: not a dmtk ktensor file");
}

/// Body shared by both payload kinds: `From` is the stored scalar, `To`
/// the requested one.
template <typename From, typename To>
KtensorT<To> read_ktensor_body(FileReader& r) {
  const std::uint64_t order64 = r.read_u64();
  const std::uint64_t rank64 = r.read_u64();
  const auto order = static_cast<index_t>(order64);
  const auto rank = static_cast<index_t>(rank64);
  if (order < 1 || order > 64 || rank < 1 || rank > (index_t{1} << 32)) {
    throw IoError("implausible ktensor header");
  }
  check_payload_has(r, rank64, sizeof(From), "ktensor lambda");
  KtensorT<To> K;
  K.lambda.resize(static_cast<std::size_t>(rank));
  if constexpr (std::is_same_v<From, To>) {
    read_scalars(r, K.lambda.data(), K.lambda.size());
  } else {
    read_converting<From>(r, K.lambda.data(), K.lambda.size());
  }
  K.factors.reserve(static_cast<std::size_t>(order));
  for (index_t n = 0; n < order; ++n) {
    K.factors.push_back(read_matrix_body_as<From, To>(r));
    if (K.factors.back().cols() != rank) {
      throw IoError("ktensor factor rank mismatch");
    }
  }
  r.verify();
  K.validate();
  return K;
}

}  // namespace

template <typename T>
void write_ktensor(const std::filesystem::path& path, const KtensorT<T>& K) {
  K.validate();
  FileWriter w(path, FileWriter::Footer::Crc32);
  write_magic(w, std::is_same_v<T, float> ? kKtensorMagicF32 : kKtensorMagic);
  w.write_u64(static_cast<std::uint64_t>(K.order()));
  w.write_u64(static_cast<std::uint64_t>(K.rank()));
  // Lambda (stored explicitly, in the payload scalar; all-ones if the
  // model had none).
  for (index_t c = 0; c < K.rank(); ++c) {
    const T l = K.lambda_or_one(c);
    w.write_bytes(&l, sizeof l);
  }
  for (const MatrixT<T>& U : K.factors) write_matrix_body(w, U);
  w.commit();
}

template <typename T>
KtensorT<T> read_ktensor_as(const std::filesystem::path& path) {
  FileReader r(path);
  const ScalarKind kind = read_ktensor_magic(r);
  return kind == ScalarKind::F32 ? read_ktensor_body<float, T>(r)
                                 : read_ktensor_body<double, T>(r);
}

Ktensor read_ktensor(const std::filesystem::path& path) {
  return read_ktensor_as<double>(path);
}

ScalarKind ktensor_scalar_kind(const std::filesystem::path& path) {
  FileReader r(path);
  return read_ktensor_magic(r);
}

template void write_ktensor<double>(const std::filesystem::path&,
                                    const Ktensor&);
template void write_ktensor<float>(const std::filesystem::path&,
                                   const KtensorF&);
template Ktensor read_ktensor_as<double>(const std::filesystem::path&);
template KtensorF read_ktensor_as<float>(const std::filesystem::path&);

void export_csv(const std::filesystem::path& path, const Matrix& M) {
  // Same atomic-replace discipline as the binary writers (a crash
  // mid-export must not leave a half-written CSV over a good one), but no
  // checksum footer: CSV is an interchange format for other tools.
  FileWriter w(path, FileWriter::Footer::None);
  char cell[64];
  for (index_t i = 0; i < M.rows(); ++i) {
    for (index_t j = 0; j < M.cols(); ++j) {
      const int len = std::snprintf(cell, sizeof cell, "%s%.17g",
                                    j == 0 ? "" : ",", M(i, j));
      w.write_bytes(cell, static_cast<std::size_t>(len));
    }
    w.write_text("\n");
  }
  w.commit();
}

namespace {

[[noreturn]] void tns_error(const std::filesystem::path& path,
                            std::size_t line_no, const std::string& what) {
  throw IoError(path.string() + ":" + std::to_string(line_no) + ": " + what);
}

}  // namespace

sparse::SparseTensor read_tns(const std::filesystem::path& path) {
  std::ifstream f(path);
  if (!f) throw IoError("cannot open for reading: " + path.string());

  // Pass 1: count data lines (and take the order off the first one) so
  // every buffer below reserves exactly once. FROSTT files reach tens of
  // millions of nonzeros; growth reallocations of the flat coordinate
  // array would copy gigabytes, and the count is a cheap scan.
  std::size_t nnz_count = 0;
  index_t first_order = 0;
  {
    std::string scan;
    while (std::getline(f, scan)) {
      const std::size_t hash = scan.find('#');
      const std::size_t len = hash == std::string::npos ? scan.size() : hash;
      std::size_t i = 0;
      index_t nfields = 0;
      while (i < len) {
        while (i < len && std::isspace(static_cast<unsigned char>(scan[i]))) {
          ++i;
        }
        if (i >= len) break;
        ++nfields;
        if (nnz_count > 0) break;  // only the first data line needs a count
        while (i < len && !std::isspace(static_cast<unsigned char>(scan[i]))) {
          ++i;
        }
      }
      if (nfields == 0) continue;
      if (nnz_count == 0) first_order = nfields - 1;
      ++nnz_count;
    }
    f.clear();
    f.seekg(0);
  }

  // Pass 2: parse and validate into the pre-sized buffers. The mode
  // sizes are the coordinate maxima, so all entries are parsed (with
  // line numbers) before the tensor can be constructed. Coordinates land
  // in ONE flat entry-major array and fields are parsed in place off the
  // line buffer — per-entry vectors or per-token strings would dominate
  // the read.
  std::vector<index_t> coords;  // flat [entry * order + mode], 0-based
  std::vector<double> values;
  if (nnz_count > 0 && first_order > 0) {
    coords.reserve(nnz_count * static_cast<std::size_t>(first_order));
    values.reserve(nnz_count);
  }
  index_t order = 0;
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::pair<const char*, const char*>> fields;  // reused
  while (std::getline(f, line)) {
    ++line_no;
    // '#' starts a comment; fields are whitespace-separated [begin, end)
    // slices of the line buffer.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    fields.clear();
    const char* p = line.c_str();
    while (*p != '\0') {
      while (*p != '\0' && std::isspace(static_cast<unsigned char>(*p))) ++p;
      if (*p == '\0') break;
      const char* begin = p;
      while (*p != '\0' && !std::isspace(static_cast<unsigned char>(*p))) ++p;
      fields.emplace_back(begin, p);
    }
    if (fields.empty()) continue;  // blank or comment-only line
    if (fields.size() < 2) {
      tns_error(path, line_no,
                "expected at least one coordinate and a value");
    }
    if (order == 0) {
      order = static_cast<index_t>(fields.size()) - 1;
    } else if (static_cast<index_t>(fields.size()) != order + 1) {
      tns_error(path, line_no,
                "expected " + std::to_string(order) +
                    " coordinates and a value, got " +
                    std::to_string(fields.size()) + " fields");
    }
    for (index_t n = 0; n < order; ++n) {
      const auto [begin, end] = fields[static_cast<std::size_t>(n)];
      char* endp = nullptr;
      errno = 0;
      const long long v = std::strtoll(begin, &endp, 10);
      if (endp != end) {  // strtoll stops at whitespace/end on valid input
        tns_error(path, line_no,
                  "bad coordinate '" + std::string(begin, end) + "'");
      }
      // Overflowed parses (errno == ERANGE clamps to LLONG_MIN/MAX) and
      // coordinates beyond the library's extent cap would otherwise
      // silently become a multi-terabyte shape request downstream.
      if (errno == ERANGE || v > (index_t{1} << 40)) {
        tns_error(path, line_no,
                  "coordinate " + std::string(begin, end) +
                      " overflows the supported index range");
      }
      if (v < 1) {
        tns_error(path, line_no,
                  "coordinate " + std::string(begin, end) +
                      " out of range (coordinates are 1-based)");
      }
      coords.push_back(static_cast<index_t>(v) - 1);
    }
    {
      const auto [begin, end] = fields.back();
      char* endp = nullptr;
      const double v = std::strtod(begin, &endp);
      if (endp != end) {
        tns_error(path, line_no, "bad value '" + std::string(begin, end) +
                                     "'");
      }
      values.push_back(v);
    }
  }
  if (values.empty()) {
    throw IoError(path.string() + ": no nonzero entries (a .tns file needs "
                  "at least one data line)");
  }

  std::vector<index_t> dims(static_cast<std::size_t>(order), 1);
  for (std::size_t k = 0; k < values.size(); ++k) {
    for (index_t n = 0; n < order; ++n) {
      dims[static_cast<std::size_t>(n)] = std::max(
          dims[static_cast<std::size_t>(n)],
          coords[k * static_cast<std::size_t>(order) +
                 static_cast<std::size_t>(n)] + 1);
    }
  }
  sparse::SparseTensor S(dims);
  S.reserve(static_cast<index_t>(values.size()));
  for (std::size_t k = 0; k < values.size(); ++k) {
    S.push_back({coords.data() + k * static_cast<std::size_t>(order),
                 static_cast<std::size_t>(order)},
                values[k]);
  }
  return S;
}

void write_tns(const std::filesystem::path& path,
               const sparse::SparseTensor& S) {
  // The format has no header: shape exists only as coordinate maxima, so
  // an empty tensor would serialize to a file read_tns must reject.
  // Refusing here beats writing unreadable data — and the check precedes
  // the FileWriter so no temp file is ever created for the error case.
  if (S.nnz() == 0) {
    throw IoError(path.string() +
                  ": the .tns format cannot represent an empty tensor "
                  "(no nonzeros to infer a shape from)");
  }
  // Atomic replace, no checksum footer: .tns is the FROSTT interchange
  // format and other tools' parsers must keep reading our output. Every
  // write is still checked (an ENOSPC mid-file throws instead of leaving
  // a silently short file — and the temp never reaches `path`).
  FileWriter w(path, FileWriter::Footer::None);
  const index_t N = S.order();
  char cell[64];
  for (index_t k = 0; k < S.nnz(); ++k) {
    for (index_t n = 0; n < N; ++n) {
      const int len = std::snprintf(cell, sizeof cell, "%lld ",
                                    static_cast<long long>(S.coord(n, k) + 1));
      w.write_bytes(cell, static_cast<std::size_t>(len));
    }
    const int len = std::snprintf(cell, sizeof cell, "%.17g\n", S.value(k));
    w.write_bytes(cell, static_cast<std::size_t>(len));
  }
  w.commit();
}

}  // namespace dmtk::io
