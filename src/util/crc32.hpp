#pragma once
/// \file crc32.hpp
/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the
/// checksum behind the binary-file footers. Incremental: writers fold
/// bytes in as they stream, readers re-fold and compare.
///
/// On x86 CPUs with PCLMULQDQ (chosen once per process) updates of 64
/// bytes or more run the carry-less-multiply fold of Gopal et al. (Intel,
/// 2009): four 128-bit lanes, 64 bytes per step, at several GB/s. Shorter
/// inputs, the sub-16-byte tail and CPUs without PCLMULQDQ use the
/// bytewise table loop. Both paths give the same value for any split of
/// the input into updates.

#include <cstddef>
#include <cstdint>

namespace dmtk::util {

/// Incremental CRC-32. Usage: start from crc32_init(), fold byte ranges
/// with crc32_update(), finish with crc32_final(). The one-shot form
/// crc32(p, n) does all three.
inline constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t n) noexcept;

inline constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const void* data, std::size_t n) noexcept {
  return crc32_final(crc32_update(crc32_init(), data, n));
}

/// CRC of the concatenation A||B from crc1 = crc32(A), crc2 = crc32(B)
/// and len2 = |B| (finished CRCs, as zlib's crc32_combine): crc1 is
/// shifted past len2 zero bytes by one multiplication with x^(8 len2)
/// mod P(x), computed by repeated squaring in O(log len2) — no bytes of
/// either input are touched. This is what lets chunks of one payload be
/// checksummed on separate threads and joined in file order.
std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2) noexcept;

namespace detail {

/// The one-byte-per-step table loop: the reference the folded path is
/// tested against, and the path for short inputs.
std::uint32_t crc32_update_bytewise(std::uint32_t state, const void* data,
                                    std::size_t n) noexcept;

}  // namespace detail

}  // namespace dmtk::util
