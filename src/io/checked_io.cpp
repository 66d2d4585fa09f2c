#include "io/checked_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <limits>
#include <vector>

#include "util/crc32.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace dmtk::io {
namespace {

constexpr std::size_t kWriteBufBytes = 1u << 16;

/// Append a chunk's finished CRC to a running (unfinished) CRC state.
/// crc32_final is an xor, its own inverse, so it also turns a finished
/// CRC back into a running state.
std::uint32_t append_crc(std::uint32_t state, std::uint32_t chunk_crc,
                         std::uint64_t chunk_bytes) {
  return util::crc32_final(util::crc32_combine(util::crc32_final(state),
                                               chunk_crc, chunk_bytes));
}

/// Lower `target` to `v` when `v` is smaller.
void fetch_min(std::atomic<std::uint64_t>& target, std::uint64_t v) {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string errno_text(int err) {
  return err != 0 ? std::string(std::strerror(err)) : std::string("error");
}

/// fsync the directory containing `p`, making a just-renamed entry
/// durable. Best-effort on filesystems that refuse directory fsync.
void fsync_parent_dir(const std::filesystem::path& p) {
  std::filesystem::path dir = p.parent_path();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) return;
  (void)::fsync(dfd);
  ::close(dfd);
}

}  // namespace

// ---------------------------------------------------------------------------
// FileWriter
// ---------------------------------------------------------------------------

FileWriter::FileWriter(const std::filesystem::path& path, Footer footer)
    : final_path_(path),
      tmp_path_(path.native() + ".tmp." + std::to_string(::getpid())),
      crc_(util::crc32_init()),
      footer_(footer) {
  buf_.reserve(kWriteBufBytes);
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0)
    throw IoError("cannot open '" + tmp_path_.string() +
                  "' for writing: " + errno_text(errno));
}

FileWriter::~FileWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!committed_) {
    std::error_code ec;
    std::filesystem::remove(tmp_path_, ec);
  }
}

void FileWriter::fail(const std::string& what, int err) {
  // The temp is unlinked here as well as in the destructor so the error
  // path never leaves litter even if the exception is swallowed upstream
  // and the writer kept alive.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::error_code ec;
  std::filesystem::remove(tmp_path_, ec);
  throw IoError("write failed for '" + final_path_.string() + "': " + what +
                (err != 0 ? " (" + errno_text(err) + ")" : ""));
}

void FileWriter::flush_buffer() {
  if (buf_.empty()) return;
  if (fd_ < 0) fail("writer already failed", 0);
  if (fault::any_armed() && fault::should_fail("io.write"))
    fail("injected fault at site 'io.write'", ENOSPC);
  const char* p = buf_.data();
  std::size_t left = buf_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write()", errno);
    }
    if (n == 0) fail("write() wrote nothing", 0);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  buf_.clear();
}

void FileWriter::write_bytes(const void* data, std::size_t n) {
  if (committed_) fail("write after commit", 0);
  crc_ = util::crc32_update(crc_, data, n);
  written_ += n;
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const std::size_t take = std::min(n, kWriteBufBytes - buf_.size());
    buf_.append(p, take);
    p += take;
    n -= take;
    if (buf_.size() == kWriteBufBytes) flush_buffer();
  }
}

void FileWriter::commit() {
  if (committed_) return;
  if (footer_ == Footer::Crc32) {
    // Footer bytes are NOT part of the payload CRC/length, so freeze the
    // payload values first, then append the footer raw.
    const std::uint64_t payload = written_;
    const std::uint32_t crc = util::crc32_final(crc_);
    const std::uint32_t reserved = 0;
    std::string footer;
    footer.append(kFooterMagic.data(), kFooterMagic.size());
    // memcpy through a char buffer, not reinterpret_cast of &field: the
    // object representation is what the footer format stores, and memcpy
    // is the aliasing-clean way to read it.
    const auto append_raw = [&footer](const auto& v) {
      char raw[sizeof v];
      std::memcpy(raw, &v, sizeof v);
      footer.append(raw, sizeof v);
    };
    append_raw(payload);
    append_raw(crc);
    append_raw(reserved);
    // Bypass write_bytes: the footer must not fold into its own CRC.
    const std::size_t room = kWriteBufBytes - buf_.size();
    if (footer.size() > room) flush_buffer();
    buf_.append(footer);
  }
  flush_buffer();
  if (::fsync(fd_) != 0) fail("fsync()", errno);
  if (::close(fd_) != 0) {
    fd_ = -1;
    fail("close()", errno);
  }
  fd_ = -1;
  if (::rename(tmp_path_.c_str(), final_path_.c_str()) != 0)
    fail("rename()", errno);
  committed_ = true;
  fsync_parent_dir(final_path_);
}

// ---------------------------------------------------------------------------
// FileReader
// ---------------------------------------------------------------------------

FileReader::FileReader(const std::filesystem::path& path)
    : path_(path), crc_(util::crc32_init()) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0)
    throw IoError("cannot open '" + path.string() +
                  "': " + errno_text(errno));
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw IoError("cannot stat '" + path.string() + "': " + errno_text(err));
  }
  file_size_ = static_cast<std::uint64_t>(st.st_size);
  payload_size_ = file_size_;

  // Footer detection: trailing magic AND a recorded payload length that
  // matches the file size. Both must hold — random trailing bytes in a
  // legacy file can't spell the magic by construction of the formats,
  // and a half-truncated footer fails the length check, surfacing later
  // in verify() as "trailing bytes" instead of silently downgrading.
  if (file_size_ >= kFooterBytes) {
    char footer[kFooterBytes];
    ssize_t n = ::pread(fd_, footer, sizeof footer,
                        static_cast<off_t>(file_size_ - kFooterBytes));
    if (n == static_cast<ssize_t>(sizeof footer) &&
        std::memcmp(footer, kFooterMagic.data(), kFooterMagic.size()) == 0) {
      std::uint64_t recorded = 0;
      std::uint32_t crc = 0;
      std::memcpy(&recorded, footer + 8, sizeof recorded);
      std::memcpy(&crc, footer + 16, sizeof crc);
      if (recorded == file_size_ - kFooterBytes) {
        has_footer_ = true;
        footer_payload_size_ = recorded;
        footer_crc_ = crc;
        payload_size_ = recorded;
      }
    }
  }
}

FileReader::~FileReader() {
  if (fd_ >= 0) ::close(fd_);
}

void FileReader::fail(const std::string& what) const {
  throw IoError("'" + path_.string() + "': " + what);
}

std::size_t FileReader::read_some(char* dst, std::size_t ask,
                                  std::uint64_t at) const {
  for (;;) {
    ssize_t n = ::pread(fd_, dst, ask, static_cast<off_t>(at));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("read() failed at offset " + std::to_string(at) + ": " +
           errno_text(errno));
    }
    if (fault::any_armed() && fault::should_fail("io.read.short")) n = 0;
    if (n == 0)
      fail("truncated: unexpected end of data at offset " +
           std::to_string(at) + " (payload size " +
           std::to_string(payload_size_) + ")");
    return static_cast<std::size_t>(n);
  }
}

void FileReader::refill(std::size_t need) {
  // Only called on an empty buffer, so the next unread byte is offset_.
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(payload_size_ - offset_, buf_.size()));
  buf_pos_ = 0;
  buf_end_ = 0;
  while (buf_end_ < need)
    buf_end_ += read_some(buf_.data() + buf_end_, want - buf_end_,
                          offset_ + buf_end_);
}

void FileReader::read_direct(char* out, std::size_t n, int threads) {
  // Chunks are whole runs of pieces, split as evenly as block_range splits
  // rows; the last piece of the read may be short.
  const auto pieces =
      static_cast<index_t>((n + kDirectPieceBytes - 1) / kDirectPieceBytes);
  const int chunks = static_cast<int>(std::clamp<std::size_t>(
      n / kParallelChunkBytes, 1,
      static_cast<std::size_t>(resolve_threads(threads))));
  struct Chunk {
    std::size_t begin = 0;
    std::size_t bytes = 0;
    std::uint32_t crc = 0;
    std::exception_ptr error;
  };
  std::vector<Chunk> parts(static_cast<std::size_t>(chunks));
  for (int c = 0; c < chunks; ++c) {
    const Range r = block_range(pieces, chunks, c);
    Chunk& part = parts[static_cast<std::size_t>(c)];
    part.begin = static_cast<std::size_t>(r.begin) * kDirectPieceBytes;
    part.bytes =
        std::min(static_cast<std::size_t>(r.end) * kDirectPieceBytes, n) -
        part.begin;
  }

  // Lowest payload offset at which a chunk has failed. A chunk stops once
  // it is past it: that lower failure is the one thrown, as it would be
  // by the one-thread read, whatever the later chunks would have seen.
  std::atomic<std::uint64_t> failed_at{
      std::numeric_limits<std::uint64_t>::max()};
  const auto read_chunk = [&](Chunk& part) {
    const std::uint64_t at = offset_ + part.begin;
    char* dst = out + part.begin;
    std::uint32_t state = util::crc32_init();
    for (std::size_t done = 0; done < part.bytes;) {
      if (failed_at.load(std::memory_order_relaxed) < at + done) return;
      const std::size_t piece = std::min(part.bytes - done, kDirectPieceBytes);
      std::size_t got = 0;
      try {
        while (got < piece)
          got += read_some(dst + done + got, piece - got, at + done + got);
      } catch (...) {
        fetch_min(failed_at, at + done + got);
        throw;
      }
      // Fold while the piece is still cache-resident.
      state = util::crc32_update(state, dst + done, piece);
      done += piece;
    }
    part.crc = util::crc32_final(state);
  };
  // An exception must not leave an OpenMP region (std::terminate): each
  // thread keeps its chunk's, and the lowest chunk's is rethrown below.
  parallel_region(chunks, [&](int t, int nt) {
    for (int c = t; c < chunks; c += nt) {
      Chunk& part = parts[static_cast<std::size_t>(c)];
      try {
        read_chunk(part);
      } catch (...) {
        part.error = std::current_exception();
      }
    }
  });
  for (const Chunk& part : parts)
    if (part.error) std::rethrow_exception(part.error);
  for (const Chunk& part : parts) crc_ = append_crc(crc_, part.crc, part.bytes);
  offset_ += n;
}

void FileReader::read_bytes(void* data, std::size_t n, int threads) {
  if (n > payload_size_ - offset_)
    fail("truncated: need " + std::to_string(n) + " bytes at offset " +
         std::to_string(offset_) + " but payload ends at " +
         std::to_string(payload_size_));
  char* out = static_cast<char*>(data);
  const auto take_buffered = [&] {
    const std::size_t take = std::min(n, buf_end_ - buf_pos_);
    if (take == 0) return;  // `data` may be null for an empty read
    std::memcpy(out, buf_.data() + buf_pos_, take);
    crc_ = util::crc32_update(crc_, out, take);
    buf_pos_ += take;
    out += take;
    offset_ += take;
    n -= take;
  };
  take_buffered();
  if (n == 0) return;
  // The buffer is drained. A request at least a buffer long goes straight
  // into the caller's memory; a short one refills the buffer first.
  if (n >= buf_.size()) {
    read_direct(out, n, threads);
  } else {
    refill(n);
    take_buffered();
  }
}

void FileReader::verify() {
  if (has_footer_) {
    if (offset_ != footer_payload_size_)
      fail("payload length mismatch: format consumed " +
           std::to_string(offset_) + " bytes, footer records " +
           std::to_string(footer_payload_size_));
    const std::uint32_t got = util::crc32_final(crc_);
    if (got != footer_crc_)
      fail("checksum mismatch: payload CRC32 " + std::to_string(got) +
           " != recorded " + std::to_string(footer_crc_) +
           " (file is corrupt)");
  } else if (offset_ != file_size_) {
    // A legacy (footerless) file must be consumed exactly; trailing bytes
    // mean either garbage appended or a checksummed file whose footer was
    // itself damaged — both are corruption, not a format variant.
    fail("trailing bytes: format consumed " + std::to_string(offset_) +
         " of " + std::to_string(file_size_) + " bytes");
  }
}

}  // namespace dmtk::io
