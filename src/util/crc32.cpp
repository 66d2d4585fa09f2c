#include "util/crc32.hpp"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#define DMTK_HAVE_CRC32_PCLMUL 1
#include <immintrin.h>

#include <cstring>
#endif

namespace dmtk::util {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_crc32_table();

/// a(x) * b(x) mod P(x) in the reflected bit order the table uses: bit 31
/// holds x^0, bit 0 holds x^31.
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return product;
}

/// x^(8 n) mod P(x): the operator that moves a CRC past n zero bytes.
std::uint32_t x8nmodp(std::uint64_t n) noexcept {
  std::uint32_t power = 1u << 31;  // x^0
  for (std::uint32_t sq = 1u << 23; n != 0; n >>= 1) {  // x^8, x^16, ...
    if ((n & 1u) != 0) power = multmodp(sq, power);
    sq = multmodp(sq, sq);
  }
  return power;
}

#ifdef DMTK_HAVE_CRC32_PCLMUL

/// Below this many bytes the fold's fixed cost (four 16-byte lanes, three
/// lane merges, the 128 -> 32-bit reduction) loses to the table loop.
constexpr std::size_t kFoldMinBytes = 64;

// Folding constants for the reflected polynomial 0xEDB88320 (Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel 2009). Each k is a power of x reduced modulo P(x)
// for the fold distance it serves, bit-reflected as the paper derives:
//   k1/k2  fold a 128-bit lane forward by 512 bits (4-lane loop),
//   k3/k4  fold forward by 128 bits (lane merge and 16-byte tail),
//   k5     fold 64 bits down to 32,
//   P, mu  the polynomial and its Barrett quotient floor(x^64 / P(x)).
constexpr std::uint64_t kK1 = 0x154442BD4u;
constexpr std::uint64_t kK2 = 0x1C6E41596u;
constexpr std::uint64_t kK3 = 0x1751997D0u;
constexpr std::uint64_t kK4 = 0x0CCAA009Eu;
constexpr std::uint64_t kK5 = 0x163CD6124u;
constexpr std::uint64_t kPoly = 0x1DB710641u;
constexpr std::uint64_t kMu = 0x1F7011641u;

/// Unaligned 16-byte load; memcpy keeps it free of pointer casts and
/// compiles to one movdqu.
__attribute__((target("pclmul,sse4.1"))) inline __m128i load16(
    const unsigned char* p) noexcept {
  __m128i v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// acc * x^e (the distance `k` encodes) xor'ed onto the next 16 bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(
    __m128i acc, __m128i k, __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Carry-less-multiply CRC over `n` bytes; n >= kFoldMinBytes and a
/// multiple of 16. Takes and returns the raw register state, like
/// crc32_update.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold_pclmul(
    std::uint32_t state, const unsigned char* p, std::size_t n) noexcept {
  // Four independent 128-bit lanes hide the multiplier's latency; the
  // state enters by xor into the first four bytes.
  __m128i x0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  p += 64;
  n -= 64;

  const __m128i k12 = _mm_set_epi64x(static_cast<long long>(kK2),
                                     static_cast<long long>(kK1));
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k12, load16(p));
    x1 = fold16(x1, k12, load16(p + 16));
    x2 = fold16(x2, k12, load16(p + 32));
    x3 = fold16(x3, k12, load16(p + 48));
  }

  // Merge the lanes into one, then fold any remaining 16-byte blocks.
  const __m128i k34 = _mm_set_epi64x(static_cast<long long>(kK4),
                                     static_cast<long long>(kK3));
  x0 = fold16(x0, k34, x1);
  x0 = fold16(x0, k34, x2);
  x0 = fold16(x0, k34, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold16(x0, k34, load16(p));

  // 128 -> 64 bits: the low half times x^64-distance k4 onto the high
  // half. Then 64 -> 32 bits via k5 on the low word.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k34, 0x10));
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kK5));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  // Barrett reduction to the 32-bit remainder.
  const __m128i pmu = _mm_set_epi64x(static_cast<long long>(kMu),
                                     static_cast<long long>(kPoly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), pmu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pmu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

/// Decided once per process: every later update takes the same path.
bool have_pclmul() noexcept {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return yes;
}

#endif  // DMTK_HAVE_CRC32_PCLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_update_bytewise(std::uint32_t state, const void* data,
                                    std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i)
    state = kTable[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  return state;
}

}  // namespace detail

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                            std::uint64_t len2) noexcept {
  return multmodp(x8nmodp(len2), crc1) ^ crc2;
}

std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
#ifdef DMTK_HAVE_CRC32_PCLMUL
  if (n >= kFoldMinBytes && have_pclmul()) {
    const std::size_t bulk = n & ~std::size_t{15};
    state = crc32_fold_pclmul(state, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return detail::crc32_update_bytewise(state, p, n);
}

}  // namespace dmtk::util
