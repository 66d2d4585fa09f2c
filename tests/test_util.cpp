// Tests for util/: block partitioning, stats, RNG, timers, STREAM kernels,
// the threading environment and CRC-32.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <new>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "util/aligned_alloc.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stream.hpp"
#include "util/timer.hpp"

namespace dmtk {
namespace {

// ---------------------------------------------------------------- block_range

TEST(BlockRange, CoversAllElementsExactlyOnce) {
  for (index_t total : {0, 1, 5, 12, 13, 100}) {
    for (int nt : {1, 2, 3, 7, 12, 64}) {
      std::vector<int> hits(static_cast<std::size_t>(total), 0);
      for (int t = 0; t < nt; ++t) {
        const Range r = block_range(total, nt, t);
        for (index_t i = r.begin; i < r.end; ++i) {
          ++hits[static_cast<std::size_t>(i)];
        }
      }
      for (index_t i = 0; i < total; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "total=" << total << " nt=" << nt << " i=" << i;
      }
    }
  }
}

TEST(BlockRange, BlocksAreContiguousAndOrdered) {
  const index_t total = 97;
  const int nt = 8;
  index_t expected_begin = 0;
  for (int t = 0; t < nt; ++t) {
    const Range r = block_range(total, nt, t);
    EXPECT_EQ(r.begin, expected_begin);
    expected_begin = r.end;
  }
  EXPECT_EQ(expected_begin, total);
}

TEST(BlockRange, BalancedWithinOne) {
  const index_t total = 103;
  const int nt = 12;
  index_t mn = total, mx = 0;
  for (int t = 0; t < nt; ++t) {
    const Range r = block_range(total, nt, t);
    mn = std::min(mn, r.size());
    mx = std::max(mx, r.size());
  }
  EXPECT_LE(mx - mn, 1);
}

TEST(BlockRange, MoreThreadsThanWork) {
  const index_t total = 3;
  const int nt = 8;
  index_t covered = 0;
  for (int t = 0; t < nt; ++t) covered += block_range(total, nt, t).size();
  EXPECT_EQ(covered, total);
}

// ------------------------------------------------------------- parallel_for

TEST(ParallelFor, VisitsEveryIndexOnce) {
  const index_t n = 1000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  parallel_for_blocked(index_t{0}, n, 4,
                       [&](index_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadFallback) {
  index_t sum = 0;
  parallel_for_blocked(index_t{0}, index_t{10}, 1, [&](index_t i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelRegion, TeamSizeMatches) {
  std::atomic<int> count{0};
  parallel_region(3, [&](int, int nt) {
    EXPECT_EQ(nt, 3);
    ++count;
  });
  EXPECT_EQ(count.load(), 3);
}

// -------------------------------------------------------------------- stats

TEST(Stats, MeanMedianStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 10.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_NEAR(stddev(xs), 3.5355339, 1e-6);
}

TEST(Stats, MedianEvenCount) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, EmptyInputs) {
  const std::vector<double> xs;
  EXPECT_DOUBLE_EQ(mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(median(xs), 0.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(11);
  const int n = 20000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.05);
  EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng rng(13);
  Rng s1 = rng.split();
  Rng s2 = rng.split();
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, FillHelpers) {
  Rng rng(17);
  std::vector<double> v(64);
  fill_uniform(v, rng, 2.0, 3.0);
  for (double x : v) {
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

// -------------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
}

TEST(Timer, ResetRestarts) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(Timer, MedianOfTrialsRuns) {
  int calls = 0;
  const double med = time_median(5, [&] { ++calls; });
  EXPECT_EQ(calls, 5);
  EXPECT_GE(med, 0.0);
}

TEST(PhaseTimerTest, AccumulatesIntoSlot) {
  double slot = 0.0;
  {
    PhaseTimer pt(&slot);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(slot, 0.0);
}

TEST(PhaseTimerTest, NullSlotIsNoop) {
  PhaseTimer pt(nullptr);  // must not crash
  pt.stop();
}

TEST(PhaseTimerTest, StopIsIdempotent) {
  double slot = 0.0;
  PhaseTimer pt(&slot);
  pt.stop();
  const double after_first = slot;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  pt.stop();
  EXPECT_EQ(slot, after_first);
}

// ------------------------------------------------------------------- stream

TEST(Stream, CopyMovesData) {
  std::vector<double> a(1000), b(1000, 0.0);
  std::iota(a.begin(), a.end(), 0.0);
  const double bytes = stream::copy(a, b, 2);
  EXPECT_EQ(b, a);
  EXPECT_DOUBLE_EQ(bytes, 2.0 * 1000 * sizeof(double));
}

TEST(Stream, ScaleAppliesAlpha) {
  std::vector<double> a(100, 2.0), b(100, 0.0);
  stream::scale(a, b, 3.0, 1);
  for (double x : b) EXPECT_DOUBLE_EQ(x, 6.0);
}

TEST(Stream, AddSums) {
  std::vector<double> a(100, 1.5), b(100, 2.5), c(100, 0.0);
  const double bytes = stream::add(a, b, c, 2);
  for (double x : c) EXPECT_DOUBLE_EQ(x, 4.0);
  EXPECT_DOUBLE_EQ(bytes, 3.0 * 100 * sizeof(double));
}

TEST(Stream, TriadFma) {
  std::vector<double> a(64, 1.0), b(64, 2.0), c(64, 0.0);
  stream::triad(a, b, c, 10.0, 3);
  for (double x : c) EXPECT_DOUBLE_EQ(x, 21.0);
}

TEST(Stream, ReadScaleWriteMatchesScale) {
  std::vector<double> a(128, 4.0), b(128, 0.0);
  stream::read_scale_write(a, b, 0.5, 2);
  for (double x : b) EXPECT_DOUBLE_EQ(x, 2.0);
}

TEST(Stream, SizeMismatchThrows) {
  std::vector<double> a(10), b(11);
  EXPECT_THROW(stream::copy(a, b), DimensionError);
}

// ---------------------------------------------------------------------- env

TEST(Env, ResolveThreadsUsesDefault) {
  set_num_threads(5);
  EXPECT_EQ(resolve_threads(0), 5);
  EXPECT_EQ(resolve_threads(-1), 5);
  EXPECT_EQ(resolve_threads(3), 3);
  set_num_threads(hardware_threads());
}

TEST(Env, SetNumThreadsClampsToOne) {
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
  set_num_threads(hardware_threads());
}

TEST(Env, HardwareThreadsPositive) { EXPECT_GE(hardware_threads(), 1); }

// ------------------------------------------------------------------- checks

TEST(Check, ThrowsWithMessage) {
  try {
    DMTK_CHECK(false, "custom context");
    FAIL() << "expected throw";
  } catch (const DimensionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom context"), std::string::npos);
    EXPECT_NE(msg.find("false"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { DMTK_CHECK(true, "never seen"); }

// ----------------------------------------------------------- aligned alloc

TEST(AlignedAllocator, EveryBlockIsAlignedWritableAndFreed) {
  // Sizes around the alignment and a large block; each block is written
  // end to end (the sanitizer build checks the bounds) and freed.
  AlignedAllocator<double> a;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{1000},
        std::size_t{1} << 20}) {
    double* p = a.allocate(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kDefaultAlignment, 0u)
        << n;
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<double>(i);
    EXPECT_EQ(p[n - 1], static_cast<double>(n - 1));
    a.deallocate(p, n);
  }
  EXPECT_EQ(a.allocate(0), nullptr);
  a.deallocate(nullptr, 0);
}

TEST(AlignedAllocator, OversizedRequestThrowsBadAlloc) {
  AlignedAllocator<double> a;
  EXPECT_THROW((void)a.allocate(std::numeric_limits<std::size_t>::max() / 4),
               std::bad_alloc);
}

// -------------------------------------------------------------------- crc32

std::vector<unsigned char> seeded_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<unsigned char> b(n);
  for (unsigned char& c : b) c = static_cast<unsigned char>(gen() >> 56);
  return b;
}

TEST(Crc32, CheckValue) {
  // The catalogued check value of CRC-32/ISO-HDLC (the zlib/PNG CRC).
  EXPECT_EQ(util::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32("", 0), 0u);
}

TEST(Crc32, DispatchedMatchesBytewiseAtEveryLengthAndAlignment) {
  // Lengths 0..300 cross the fold's 64-byte entry, its 16-byte tail and
  // several 64-byte steps; starts 0..15 cover every misalignment of the
  // 16-byte vector loads.
  const std::vector<unsigned char> b = seeded_bytes(300 + 16, 7);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t n = 0; n <= 300; ++n) {
      for (const std::uint32_t state : {util::crc32_init(), 0x1234ABCDu}) {
        ASSERT_EQ(util::crc32_update(state, b.data() + off, n),
                  util::detail::crc32_update_bytewise(state, b.data() + off,
                                                      n))
            << "offset " << off << ", length " << n;
      }
    }
  }
}

TEST(Crc32, DispatchedMatchesBytewiseOnOneMebibyte) {
  const std::vector<unsigned char> b = seeded_bytes(std::size_t{1} << 20, 11);
  EXPECT_EQ(util::crc32(b.data(), b.size()),
            util::crc32_final(util::detail::crc32_update_bytewise(
                util::crc32_init(), b.data(), b.size())));
}

TEST(Crc32, PiecewiseUpdatesEqualOneShot) {
  const std::vector<unsigned char> b = seeded_bytes(20000, 13);
  const std::uint32_t whole = util::crc32(b.data(), b.size());
  // Piece sizes straddle every boundary of the dispatch: under the fold's
  // minimum, at and around 16 and 64, and long runs.
  const std::vector<std::size_t> pieces = {1,  15, 16,   63,  64, 65,
                                           17, 3,  4096, 127, 0,  1000};
  std::uint32_t state = util::crc32_init();
  std::size_t at = 0;
  for (std::size_t i = 0; at < b.size(); ++i) {
    const std::size_t take = std::min(pieces[i % pieces.size()],
                                      b.size() - at);
    state = util::crc32_update(state, b.data() + at, take);
    at += take;
  }
  EXPECT_EQ(util::crc32_final(state), whole);

  // A seeded random split agrees too.
  std::mt19937 gen(17);
  std::uniform_int_distribution<std::size_t> len(0, 300);
  state = util::crc32_init();
  at = 0;
  while (at < b.size()) {
    const std::size_t take = std::min(len(gen), b.size() - at);
    state = util::crc32_update(state, b.data() + at, take);
    at += take;
  }
  EXPECT_EQ(util::crc32_final(state), whole);
}

std::uint32_t bytewise_crc(const unsigned char* p, std::size_t n) {
  return util::crc32_final(
      util::detail::crc32_update_bytewise(util::crc32_init(), p, n));
}

TEST(Crc32Combine, JoinsTwoHalvesAtEverySplitKind) {
  const std::vector<unsigned char> b = seeded_bytes(4096 + 16, 19);
  std::mt19937 gen(23);
  std::uniform_int_distribution<std::size_t> any(0, 4096);
  for (std::size_t off = 0; off < 16; ++off) {  // unaligned starts
    const unsigned char* p = b.data() + off;
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{63}, std::size_t{200},
                                std::size_t{4096}}) {
      const std::uint32_t whole = bytewise_crc(p, n);
      // Empty halves, halves under the 64-byte fold minimum on either
      // side, and seeded random splits.
      std::vector<std::size_t> splits = {0, n};
      for (std::size_t k = 1; k < 64 && k < n; ++k) {
        splits.push_back(k);
        splits.push_back(n - k);
      }
      for (int r = 0; r < 8; ++r) splits.push_back(any(gen) % (n + 1));
      for (const std::size_t split : splits) {
        ASSERT_EQ(util::crc32_combine(bytewise_crc(p, split),
                                      bytewise_crc(p + split, n - split),
                                      n - split),
                  whole)
            << "offset " << off << ", length " << n << ", split " << split;
      }
    }
  }
}

TEST(Crc32Combine, JoinsTwoToSevenChunksInOrder) {
  const std::vector<unsigned char> b = seeded_bytes(100000, 29);
  const std::uint32_t whole = bytewise_crc(b.data(), b.size());
  std::mt19937 gen(31);
  for (std::size_t chunks = 2; chunks <= 7; ++chunks) {
    for (int r = 0; r < 4; ++r) {
      std::uniform_int_distribution<std::size_t> cut(0, b.size());
      std::vector<std::size_t> bounds = {0, b.size()};
      for (std::size_t k = 1; k < chunks; ++k) bounds.push_back(cut(gen));
      std::sort(bounds.begin(), bounds.end());
      std::uint32_t crc = bytewise_crc(b.data(), bounds[1]);
      for (std::size_t k = 1; k < chunks; ++k) {
        const std::size_t len = bounds[k + 1] - bounds[k];
        crc = util::crc32_combine(crc, bytewise_crc(b.data() + bounds[k], len),
                                  len);
      }
      EXPECT_EQ(crc, whole) << chunks << " chunks, draw " << r;
    }
  }
}

TEST(Crc32Combine, LengthsPastFourGibibytesAssociate) {
  // No buffer: A||B||C with |B| + |C| >= 2^32 joins to the same CRC either
  // way round, which fails if the shift loses the length's high bits. Any
  // 32-bit value is the CRC of some input of 4 bytes or more.
  const std::uint64_t lb = (std::uint64_t{1} << 31) + 3;
  const std::uint64_t lc = (std::uint64_t{1} << 31) + 5;
  const std::uint32_t a = 0x01234567u, b = 0x89ABCDEFu, c = 0xDEADBEEFu;
  EXPECT_EQ(util::crc32_combine(util::crc32_combine(a, b, lb), c, lc),
            util::crc32_combine(a, util::crc32_combine(b, c, lc), lb + lc));
  // A zero-length second part leaves the first CRC as it is.
  EXPECT_EQ(util::crc32_combine(a, util::crc32("", 0), 0), a);
}

TEST(Crc32, ZeroLengthUpdateIsIdentity) {
  const unsigned char byte = 0x5A;
  for (const std::uint32_t state : {0u, util::crc32_init(), 0xDEADBEEFu}) {
    EXPECT_EQ(util::crc32_update(state, &byte, 0), state);
    EXPECT_EQ(util::crc32_update(state, nullptr, 0), state);
  }
}

}  // namespace
}  // namespace dmtk
