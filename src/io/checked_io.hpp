#pragma once
/// \file checked_io.hpp
/// \brief Crash-safe, checksummed file primitives — the substrate under
/// every binary writer/reader in tensor_io.cpp and the CP checkpoints.
///
/// Failure model. A batch tool can shrug at a torn write: the user reruns
/// it. A resident server (or a day-long FROSTT decompose writing
/// checkpoints) cannot — a crash mid-`write_model` must never corrupt the
/// previous good file, and bit-rot in a checkpoint must be *detected*, not
/// resumed from. Two mechanisms, composed:
///
///  - **Atomic replace.** FileWriter writes to `<path>.tmp.<pid>`, then on
///    commit() flushes, fsync()s the file *and its directory*, and
///    rename()s over the destination. POSIX rename is atomic: readers see
///    either the old complete file or the new complete file, never a
///    prefix. An uncommitted writer (exception, crash) leaves the
///    destination untouched; the destructor unlinks the temp.
///
///  - **CRC-32 footer.** Binary payloads end with a 24-byte footer
///    (magic "DMTKCRC1", u64 payload byte count, u32 CRC-32 of the
///    payload, u32 reserved=0). FileReader detects it by suffix, bounds
///    reads to the payload, and verify() turns a checksum or length
///    mismatch into an IoError naming the file — so truncation/bit-rot
///    surfaces as a structured error instead of garbage factors.
///    Footerless files (the pre-footer seed format) still read: detection
///    requires both the trailing magic and a recorded length equal to
///    file size minus footer, and when neither holds the whole file is
///    payload with checksum verification skipped.
///
/// Read path. Small reads (headers, extents) are served from a 64 KiB
/// buffer that pread() fills directly. A read of a buffer's length or more
/// first drains the buffer, then pread()s straight into the caller's
/// memory in 256 KiB pieces, folding each into the CRC while it is still
/// in cache — the payload is copied once, by the kernel, and checksummed
/// at the PCLMULQDQ fold's speed (util/crc32.hpp). A direct read given a
/// team (`threads`) is split into one contiguous chunk per thread, each
/// at least kParallelChunkBytes: every thread preads its chunk at its own
/// offset, so it is the first to touch those pages of the caller's
/// fresh buffer, and checksums it alone; the chunk CRCs are joined in
/// file order with util::crc32_combine into the same running CRC.
///
/// Text writers (.tns, .csv) use Footer::None: same atomic-replace
/// discipline, no footer (the formats are line-oriented interchange
/// formats read by other tools).
///
/// Fault sites: `io.write` fails a FileWriter buffer flush the way ENOSPC
/// would; `io.read.short` makes a FileReader observe a short read, driving
/// the real truncation branch. See util/fault.hpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "io/io_error.hpp"

namespace dmtk::io {

inline constexpr std::array<char, 8> kFooterMagic = {'D', 'M', 'T', 'K',
                                                     'C', 'R', 'C', '1'};
inline constexpr std::uint64_t kFooterBytes = 24;

/// Buffered, checksumming writer with atomic commit. All write paths
/// check for OS errors and throw IoError (no silent ENOSPC): the
/// unchecked-ofstream era is over.
class FileWriter {
 public:
  enum class Footer {
    Crc32,  ///< append the CRC footer on commit (binary formats)
    None    ///< plain payload (text interchange formats)
  };

  /// Open `<path>.tmp.<pid>` for writing. Throws IoError on failure.
  FileWriter(const std::filesystem::path& path, Footer footer);

  /// Unlinks the temp file when commit() was never reached — an exception
  /// mid-write leaves no litter and the destination untouched.
  ~FileWriter();

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Append `n` bytes, folding them into the running CRC.
  void write_bytes(const void* data, std::size_t n);

  void write_u64(std::uint64_t v) { write_bytes(&v, sizeof v); }
  void write_text(std::string_view s) { write_bytes(s.data(), s.size()); }

  /// Payload bytes written so far.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return written_;
  }

  /// Footer (if any) + flush + fsync(file) + close + rename over the
  /// destination + fsync(directory). After commit() the new file is
  /// durable and complete, or an IoError was thrown and the previous
  /// file at `path` is intact.
  void commit();

 private:
  void flush_buffer();
  [[noreturn]] void fail(const std::string& what, int err);

  std::filesystem::path final_path_;
  std::filesystem::path tmp_path_;
  int fd_ = -1;
  std::string buf_;
  std::uint32_t crc_;
  std::uint64_t written_ = 0;
  bool committed_ = false;
  Footer footer_;
};

/// Bounded, checksumming reader with footer auto-detection. read_bytes
/// past the payload (or a short read from the OS) throws an IoError
/// naming the file and byte offset — the caller never sees partial data.
class FileReader {
 public:
  /// Direct reads land in pieces this size: each is folded into the CRC
  /// while it still sits in L2.
  static constexpr std::size_t kDirectPieceBytes = std::size_t{1} << 18;
  /// Smallest chunk a direct read hands to a thread of its team (8 MiB):
  /// a read shorter than two of these stays on the calling thread, where
  /// it takes a few milliseconds and a team wake-up would not pay.
  static constexpr std::size_t kParallelChunkBytes = 32 * kDirectPieceBytes;

  explicit FileReader(const std::filesystem::path& path);
  ~FileReader();

  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// Payload size: file size minus the footer when one is present.
  [[nodiscard]] std::uint64_t payload_size() const noexcept {
    return payload_size_;
  }
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
  [[nodiscard]] bool has_footer() const noexcept { return has_footer_; }

  /// Read exactly `n` payload bytes (folding them into the running CRC).
  /// A direct read is split across up to `threads` threads (0 = the
  /// library default, as resolve_threads) in chunks of at least
  /// kParallelChunkBytes. The bytes, the CRC and every error are those
  /// of the one-thread read; of several failing chunks the error at the
  /// lowest offset is thrown.
  void read_bytes(void* data, std::size_t n, int threads = 1);

  std::uint64_t read_u64() {
    std::uint64_t v = 0;
    read_bytes(&v, sizeof v);
    return v;
  }

  /// Call after the format's payload is fully consumed. With a footer:
  /// recorded length and CRC must match what was read. Without one:
  /// trailing unconsumed bytes are an error (a truncated *footer* must
  /// not demote a checksummed file to a trusted legacy one).
  void verify();

 private:
  /// One pread() of up to `ask` bytes into `dst` at payload offset `at`.
  /// Retries EINTR; an OS error, end of file or an injected
  /// `io.read.short` fault throws the truncation IoError naming `at`.
  /// Touches no reader state, so team threads call it concurrently.
  std::size_t read_some(char* dst, std::size_t ask, std::uint64_t at) const;
  /// Fill the (empty) buffer with at least `need` bytes.
  void refill(std::size_t need);
  /// Read `n` bytes straight into `out` on a team of up to `threads`.
  void read_direct(char* out, std::size_t n, int threads);
  [[noreturn]] void fail(const std::string& what) const;

  std::filesystem::path path_;
  int fd_ = -1;
  std::uint64_t file_size_ = 0;
  std::uint64_t payload_size_ = 0;
  std::uint64_t offset_ = 0;  ///< payload bytes consumed
  std::uint32_t crc_;
  bool has_footer_ = false;
  std::uint64_t footer_payload_size_ = 0;
  std::uint32_t footer_crc_ = 0;
  /// Held inline: a reader puts no buffer on the heap.
  std::array<char, 1u << 16> buf_{};
  std::size_t buf_pos_ = 0;  ///< next unconsumed byte in buf_
  std::size_t buf_end_ = 0;  ///< bytes valid in buf_
};

}  // namespace dmtk::io
