#pragma once
/// \file bench.hpp
/// \brief Shared pieces of the dmtk benchmark: run budget and step log,
/// sample statistics, the span recorder, the correctness gate and the
/// workload entry points. The benchmark times public dmtk calls from the
/// outside; nothing here reaches into the library's internals.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dmtk.hpp"
#include "serve/json.hpp"

namespace perfbench {

using dmtk::index_t;
using Clock = std::chrono::steady_clock;

/// Threads of every batch job and every 4-thread probe.
inline constexpr int kThreads = 4;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------------

/// One metric value with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What a workload hands back to main: the metrics of its mode (end-to-end
/// untraced, per-layer traced) and the gate's job counts.
struct Outcome {
  Metrics metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Command-line settings of one run plus its wall-clock budget.
struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  bool toy = false;  ///< tiny shapes for the benchmark's own tests
  Clock::time_point start = Clock::now();

  [[nodiscard]] double elapsed() const { return seconds_since(start); }
  /// Budget left, keeping one second for process start-up and teardown so
  /// the whole command ends within --seconds.
  [[nodiscard]] double left() const { return seconds - 1.0 - elapsed(); }
  /// Seed of a named input stream, distinct from every solver seed.
  [[nodiscard]] std::uint64_t input_seed(std::uint64_t stream) const;
  /// Seed of the ALS initialization.
  [[nodiscard]] std::uint64_t solver_seed() const;
};

/// Logs a step's status and seconds to stderr when it ends, so a refused
/// run names the step that failed.
class Step {
 public:
  explicit Step(std::string name);
  ~Step();
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;
  void done();

 private:
  std::string name_;
  Clock::time_point t0_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Median (mean of the middle pair for even sizes); 0 for no samples.
[[nodiscard]] double median(std::vector<double> v);

/// Linear-interpolation percentile p in [0, 100] of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The tail rule: the highest percentile of the ladder {99.9, 99, 95, 90,
/// 75, 50} that leaves at least ten samples beyond it, or nullopt when
/// even the median does not (fewer than 20 samples).
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};
[[nodiscard]] std::optional<Tail> tail_percentile(const std::vector<double>& v);

/// failed / attempted, 0 when nothing was attempted.
[[nodiscard]] double failed_frac(std::int64_t failed, std::int64_t attempted);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call: name "<layer>.<what>", start and end in seconds since
/// the recorder's origin, the causing span (-1 = none) and the job or
/// request id it belongs to.
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  int job = -1;
};

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers.
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Self seconds summed per layer (the name up to its first '.').
[[nodiscard]] std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans);

/// In-memory span recorder, written out once when the run ends. Threads
/// record concurrently; each keeps its own stack of open spans, so a span
/// opened on a thread is the parent of the next one opened there.
class Trace {
 public:
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  int open(std::string name, int job);
  void close(int id);
  [[nodiscard]] std::vector<Span> spans() const;
  void write_chrome(const std::filesystem::path& path) const;

 private:
  double now() const { return seconds_since(origin_); }
  Clock::time_point origin_ = Clock::now();
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// The process-wide recorder.
Trace& trace();

/// Times one call; records a span when tracing is on.
class Scope {
 public:
  Scope(std::string name, int job = -1);
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// End the span now; returns its seconds (idempotent).
  double stop();

 private:
  Clock::time_point t0_;
  int id_ = -1;
  double seconds_ = -1.0;
};

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Relative tolerance of a sampled MTTKRP row against direct summation,
/// measured against the sum of absolute terms.
template <typename T>
inline constexpr double kRowTol = sizeof(T) == 8 ? 1e-11 : 2e-5;

/// Worst relative error over the C entries of row i of the mode-n MTTKRP
/// `M`, checked against a direct summation over the tensor in double.
template <typename T>
[[nodiscard]] double mttkrp_row_error(const dmtk::TensorT<T>& X,
                                      const std::vector<dmtk::MatrixT<T>>& U,
                                      index_t n, index_t i,
                                      const dmtk::MatrixT<T>& M);

/// Check `rows` seeded rows of every mode's MTTKRP in `Ms`; logs and
/// returns false on the first row above kRowTol.
template <typename T>
[[nodiscard]] bool check_mttkrp_rows(const dmtk::TensorT<T>& X,
                                     const std::vector<dmtk::MatrixT<T>>& U,
                                     const std::vector<dmtk::MatrixT<T>>& Ms,
                                     std::uint64_t seed, int rows);

/// Run one sweep of `plan` against fixed factors U and collect each mode's
/// MTTKRP (what the gate checks).
template <typename T>
[[nodiscard]] std::vector<dmtk::MatrixT<T>> plan_mttkrps(
    dmtk::CpAlsSweepPlanT<T>& plan, const dmtk::TensorT<T>& X,
    const std::vector<dmtk::MatrixT<T>>& U);

/// The fit floor against a planted signal with relative noise nu.
[[nodiscard]] inline bool fit_floor_ok(double fit, double nu) {
  return fit >= 1.0 - 3.0 * nu;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A planted-rank tensor: random factors of rank `rank`, plus Gaussian
/// noise at relative Frobenius level `noise`. The same seed gives the same
/// tensor at any thread count.
template <typename T>
[[nodiscard]] dmtk::TensorT<T> planted_tensor(const std::vector<index_t>& dims,
                                              index_t rank, double noise,
                                              std::uint64_t seed);

/// Directory for this run's generated inputs, `.bench_data/<workload>/
/// seed-<n>` under the working directory. Inputs of other seeds of the
/// same workload are deleted first, which bounds the disk footprint.
[[nodiscard]] std::filesystem::path input_dir(const Run& run);

/// Peak-RSS bookkeeping: reset the kernel's high-water mark, read it back.
void reset_peak_rss();
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs)
// ---------------------------------------------------------------------------

/// Order of the square GEMM of the GEMM roof.
inline constexpr index_t kGemmRoofN = 1536;

/// Bytes of the streaming roof's buffer: four times the last-level cache.
[[nodiscard]] std::size_t stream_roof_bytes();

/// Streaming and GEMM roofs at 1 and kThreads threads.
template <typename T>
void probe_roofs(Metrics& m);

/// crc32 over `bytes` bytes at `data`; returns the median seconds.
double probe_crc(Metrics& m, const void* data, std::size_t bytes);

/// Plan, per-mode MTTKRP, 1-thread sweep, GEMM, batched GEMM, Gram, solve
/// and KRP probes at the tensor's shape; returns each mode's MTTKRP of
/// the given factors, which the gate then checks.
template <typename T>
std::vector<dmtk::MatrixT<T>> probe_layers(Metrics& m,
                                           const dmtk::TensorT<T>& X,
                                           const dmtk::KtensorT<T>& model,
                                           dmtk::SweepScheme scheme);

/// (name, unit) of every declared metric: the end-to-end ones of an
/// untraced run and the per-layer ones of a traced run.
using MetricList = std::vector<std::pair<std::string, std::string>>;
[[nodiscard]] const MetricList& end_to_end_metrics();
[[nodiscard]] const MetricList& per_layer_metrics();

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Outcome run_cube3(const Run& run);
Outcome run_fmri4(const Run& run);
Outcome run_serve_mix(const Run& run);

}  // namespace perfbench
