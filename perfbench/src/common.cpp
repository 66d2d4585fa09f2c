#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

/// splitmix64 finalizer: decorrelates (seed, stream) pairs.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t Run::input_seed(std::uint64_t stream) const {
  return mix(seed * 0x9e3779b97f4a7c15ULL + 2 * stream + 1);
}

std::uint64_t Run::solver_seed() const {
  // Even streams are never input streams, so solver and input seeds differ.
  return mix(seed * 0x9e3779b97f4a7c15ULL + 0x5eed0) >> 11;
}

Step::Step(std::string name) : name_(std::move(name)), t0_(Clock::now()) {
  std::fprintf(stderr, "[perfbench] step %s: start\n", name_.c_str());
}

void Step::done() {
  if (done_) return;
  done_ = true;
  std::fprintf(stderr, "[perfbench] step %s: ok %.3f s\n", name_.c_str(),
               seconds_since(t0_));
}

Step::~Step() {
  if (!done_) {
    std::fprintf(stderr, "[perfbench] step %s: FAILED after %.3f s\n",
                 name_.c_str(), seconds_since(t0_));
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::optional<Tail> tail_percentile(const std::vector<double>& v) {
  const double n = static_cast<double>(v.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples strictly beyond the p-th percentile: n (1 - p/100), rounded
    // down; the 1e-9 absorbs the binary error of 1 - p/100.
    if (std::floor(n * (1.0 - p / 100.0) + 1e-9) >= 10.0) {
      return Tail{p, percentile(v, p)};
    }
  }
  return std::nullopt;
}

const MetricList& end_to_end_metrics() {
  static const MetricList list{{"setup_s", "s"},
                               {"decompose_s", "s"},
                               {"sweep_s", "s"},
                               {"fit", "ratio"},
                               {"peak_rss_mb", "MB"}};
  return list;
}

const MetricList& per_layer_metrics() {
  static const MetricList list = [] {
    MetricList l{{"roof.stream_GBps.t1", "GB/s"},
                 {"roof.stream_GBps.t4", "GB/s"},
                 {"roof.gemm_GFLOPs.t1", "GFLOP/s"},
                 {"roof.gemm_GFLOPs.t4", "GFLOP/s"},
                 {"util.crc32_GBps", "GB/s"},
                 {"io.read_s", "s"},
                 {"io.read_GBps", "GB/s"},
                 {"io.crc_share", "ratio"},
                 {"io.write_s", "s"},
                 {"exec.plan_s", "s"},
                 {"exec.arena_MB", "MB"}};
    for (int n = 0; n < 4; ++n) {
      l.emplace_back("exec.mode_mttkrp_s.m" + std::to_string(n), "s");
    }
    const MetricList rest{{"exec.mttkrp_GBps", "GB/s"},
                          {"exec.mttkrp_roof_frac", "ratio"},
                          {"exec.sweep_s_1t", "s"},
                          {"exec.speedup_t4", "x"},
                          {"blas.gemm_mttkrp_s", "s"},
                          {"blas.gemm_mttkrp_GFLOPs", "GFLOP/s"},
                          {"blas.gemm_mttkrp_roof_frac", "ratio"},
                          {"blas.gemm_batched_s", "s"},
                          {"blas.syrk_s", "s"},
                          {"linalg.solve_s", "s"},
                          {"core.krp_s", "s"},
                          {"core.mttkrp_GFLOP", "GFLOP"},
                          {"core.mttkrp_MB", "MB"}};
    l.insert(l.end(), rest.begin(), rest.end());
    for (const char* what : {"queue", "read", "plan", "exec", "wire"}) {
      for (const char* cls : {"d3", "d4"}) {
        l.emplace_back(std::string("serve.") + what + "_ms." + cls, "ms");
      }
    }
    for (const char* cls : {"d3", "d4"}) {
      l.emplace_back(std::string("serve.response_KB.") + cls, "KB");
    }
    const MetricList tail{{"serve.req_p90_ms", "ms"},
                          {"serve.req_count", "count"},
                          {"serve.req_per_s", "1/s"},
                          {"serve.cache_hit_ratio", "ratio"},
                          {"failed_frac", "ratio"},
                          {"trace.overhead_frac", "ratio"},
                          {"trace.unaccounted_frac", "ratio"}};
    l.insert(l.end(), tail.begin(), tail.end());
    return l;
  }();
  return list;
}

double failed_frac(std::int64_t failed, std::int64_t attempted) {
  return attempted > 0
             ? static_cast<double>(failed) / static_cast<double>(attempted)
             : 0.0;
}

}  // namespace perfbench
