/// The two batch workloads: cube3-f64 (the `dmtk decompose` path on the
/// paper's synthetic 3-way cube, read from a file) and fmri4-f32 (the
/// paper's neuroimaging shape, in memory, through the dimension tree).

#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// One batch workload's compiled-in shape.
struct BatchSpec {
  std::vector<index_t> dims;  ///< cube3: the file's extents
  index_t rank = 0;           ///< decomposition rank
  int sweeps = 0;             ///< ALS sweeps per job (tol = 0)
  dmtk::SweepScheme scheme = dmtk::SweepScheme::PerMode;
  double noise = 0.05;        ///< relative noise of the planted signal
  int min_jobs = 3;           ///< jobs per run even when the budget is short
};

// cube3-f64: 400^3 f64 is 512 MB, 1.6x the 300 MiB L3 of the reference
// box, so every MTTKRP pass streams from memory. Planted rank 25.
const BatchSpec kCube3{{400, 400, 400}, 25, 5, dmtk::SweepScheme::PerMode,
                       0.05, 3};
const BatchSpec kCube3Toy{{24, 20, 16}, 4, 5, dmtk::SweepScheme::PerMode,
                          0.05, 2};
// fmri4-f32: time x subjects x regions x regions = 225 x 59 x 64 x 64 with
// 5 planted components, decomposed at rank 20.
const dmtk::sim::FmriOptions kFmri{225, 59, 64, 5, 0.05, 0};
const dmtk::sim::FmriOptions kFmriToy{12, 5, 6, 2, 0.05, 0};
const BatchSpec kFmri4{{}, 20, 8, dmtk::SweepScheme::DimTree, 0.05, 5};
const BatchSpec kFmri4Toy{{}, 4, 8, dmtk::SweepScheme::DimTree, 0.05, 2};

/// Per-job measurements.
struct Job {
  double decompose_s = 0.0;
  double setup_s = 0.0;
  double read_s = 0.0;
  double write_s = 0.0;
  double fit = 0.0;
  std::vector<double> steady_sweeps;
};

/// Accumulates jobs and the gate's verdicts across a run.
struct Tally {
  std::vector<Job> jobs;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::optional<double> first_fit;

  /// Checks a finished job; false marks it failed.
  template <typename T>
  void add(Job job, const dmtk::CpAlsResultT<T>& res, const BatchSpec& spec) {
    ++attempted;
    bool ok = res.status != dmtk::CpAlsStatus::Diverged &&
              res.iterations == spec.sweeps && fit_floor_ok(job.fit, spec.noise);
    // Every job of a run uses the same input and solver seed, so the fit
    // must repeat. Not bit for bit: at more than two threads the library's
    // OpenMP reductions (Tensor::norm_squared among them) combine partial
    // sums in arrival order, which moves the last few bits of the fit.
    if (first_fit && std::abs(*first_fit - job.fit) > 1e-9) ok = false;
    if (!first_fit) first_fit = job.fit;
    if (!ok) {
      ++failed;
      std::fprintf(stderr,
                   "[perfbench] gate: job %lld failed (fit %.17g, %d sweeps, "
                   "status %s)\n",
                   static_cast<long long>(attempted - 1), job.fit,
                   res.iterations, dmtk::to_string(res.status));
    }
    jobs.push_back(std::move(job));
  }

  /// Whether another job of the longest length so far fits the budget.
  [[nodiscard]] bool another_fits(const Run& run, const BatchSpec& spec,
                                  double reserve_s) const {
    if (static_cast<int>(jobs.size()) < spec.min_jobs) return true;
    double longest = 0.0;
    for (const Job& j : jobs) longest = std::max(longest, j.decompose_s);
    return run.left() > longest + reserve_s;
  }

  void gate(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  [[nodiscard]] std::vector<double> pick(double Job::*field) const {
    std::vector<double> v;
    for (const Job& j : jobs) v.push_back(j.*field);
    return v;
  }

  [[nodiscard]] double sweep_s() const {
    std::vector<double> v;
    for (const Job& j : jobs) {
      v.insert(v.end(), j.steady_sweeps.begin(), j.steady_sweeps.end());
    }
    return median(v);
  }

  void end_to_end(Metrics& m) const {
    m["setup_s"] = {median(pick(&Job::setup_s)), "s"};
    m["decompose_s"] = {median(pick(&Job::decompose_s)), "s"};
    m["sweep_s"] = {sweep_s(), "s"};
    m["fit"] = {median(pick(&Job::fit)), "ratio"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  }
};

template <typename T>
dmtk::CpAlsOptionsT<T> als_options(const Run& run, const BatchSpec& spec) {
  dmtk::CpAlsOptionsT<T> o;
  o.rank = spec.rank;
  o.max_iters = spec.sweeps;
  o.tol = 0.0;
  o.seed = run.solver_seed();
  o.threads = kThreads;
  o.sweep_scheme = spec.scheme;
  o.compute_fit = true;
  return o;
}

/// Fills the job's sweep-derived fields; returns the ALS-internal set-up
/// (cp_als wall time minus its sweeps).
template <typename T>
double fill_from_result(Job& job, const dmtk::CpAlsResultT<T>& res,
                        double als_s) {
  job.fit = res.final_fit;
  double swept = 0.0;
  for (std::size_t k = 0; k < res.iters.size(); ++k) {
    swept += res.iters[k].seconds;
    if (k > 0) job.steady_sweeps.push_back(res.iters[k].seconds);
  }
  return als_s - swept;
}

/// Per-layer metrics shared by both batch workloads' traced runs.
template <typename T>
void traced_batch_metrics(Metrics& m, Tally& tally, int untraced_jobs,
                          const dmtk::TensorT<T>& X,
                          const dmtk::KtensorT<T>& model,
                          const BatchSpec& spec, std::uint64_t gate_seed) {
  std::vector<double> plain, traced;
  for (std::size_t k = 0; k < tally.jobs.size(); ++k) {
    (static_cast<int>(k) < untraced_jobs ? plain : traced)
        .push_back(tally.jobs[k].decompose_s);
  }
  m["trace.overhead_frac"] = {median(traced) / median(plain) - 1.0, "ratio"};

  const std::vector<dmtk::MatrixT<T>> Ms =
      probe_layers(m, X, model, spec.scheme);
  double children = m.at("blas.syrk_s").value + m.at("linalg.solve_s").value;
  for (int n = 0; n < 4; ++n) {
    children += m.at("exec.mode_mttkrp_s.m" + std::to_string(n)).value;
  }
  const double sweep = tally.sweep_s();
  m["trace.unaccounted_frac"] = {(sweep - children) / sweep, "ratio"};

  Step step("gate.mttkrp_rows");
  tally.gate(check_mttkrp_rows(X, model.factors, Ms, gate_seed, 4));
  step.done();
}

template <typename T>
void untraced_gate(const dmtk::TensorT<T>& X, const dmtk::KtensorT<T>& model,
                   const BatchSpec& spec, std::uint64_t gate_seed,
                   Tally& tally) {
  Step step("gate.mttkrp_rows");
  dmtk::ExecContext ctx(kThreads);
  dmtk::CpAlsSweepPlanT<T> plan(ctx, X.dims(), spec.rank, spec.scheme);
  const std::vector<dmtk::MatrixT<T>> Ms =
      plan_mttkrps(plan, X, model.factors);
  tally.gate(check_mttkrp_rows(X, model.factors, Ms, gate_seed, 4));
  step.done();
}

}  // namespace

Outcome run_cube3(const Run& run) {
  const BatchSpec& spec = run.toy ? kCube3Toy : kCube3;
  Outcome out;

  fs::path file;
  {
    Step step("inputs");
    const fs::path dir = input_dir(run);
    file = dir / "cube3.dten";
    if (!fs::exists(file)) {
      dmtk::io::write_tensor(
          file, planted_tensor<double>(spec.dims, spec.rank, spec.noise,
                                       run.input_seed(1)));
    }
    step.done();
  }
  const fs::path model_file = file.parent_path() / "model.ktn";
  reset_peak_rss();
  if (run.traced) probe_roofs<double>(out.metrics);

  // Traced runs: one job without spans, one with them (their ratio is the
  // tracing overhead), then the probes on the last job's tensor.
  const int untraced_jobs = run.traced ? 1 : 0;
  Tally tally;
  for (int j = 0;; ++j) {
    if (run.traced) trace().enable(j >= untraced_jobs);
    Step step("job " + std::to_string(j));
    Job job;
    Scope whole("job.decompose", j);
    Scope read("io.read", j);
    dmtk::Tensor X = dmtk::io::read_tensor_as<double>(file);
    job.read_s = read.stop();
    Scope als("core.cp_als", j);
    const dmtk::CpAlsResult res =
        dmtk::cp_als(X, als_options<double>(run, spec));
    const double als_s = als.stop();
    Scope write("io.write", j);
    dmtk::io::write_ktensor(model_file, res.model);
    job.write_s = write.stop();
    job.decompose_s = whole.stop();
    job.setup_s = job.read_s + fill_from_result(job, res, als_s);
    tally.add(std::move(job), res, spec);
    step.done();

    const bool last = run.traced ? j + 1 == untraced_jobs + 1
                                 : !tally.another_fits(run, spec, 1.2);
    if (!last) continue;
    if (run.traced) {
      Metrics& m = out.metrics;
      const double bytes = static_cast<double>(fs::file_size(file));
      const double read_s = median(tally.pick(&Job::read_s));
      m["io.read_s"] = {read_s, "s"};
      m["io.read_GBps"] = {bytes / read_s / 1e9, "GB/s"};
      m["io.write_s"] = {median(tally.pick(&Job::write_s)), "s"};
      const double crc_s = probe_crc(
          m, X.data(), static_cast<std::size_t>(X.numel()) * sizeof(double));
      m["io.crc_share"] = {crc_s / read_s, "ratio"};
      traced_batch_metrics(m, tally, untraced_jobs, X, res.model, spec,
                           run.input_seed(2));
    } else {
      tally.end_to_end(out.metrics);
      untraced_gate(X, res.model, spec, run.input_seed(2), tally);
    }
    break;
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.metrics["failed_frac"] = {failed_frac(out.failed, out.attempted), "ratio"};
  return out;
}

Outcome run_fmri4(const Run& run) {
  const BatchSpec& spec = run.toy ? kFmri4Toy : kFmri4;
  Outcome out;

  dmtk::TensorF X;
  {
    Step step("inputs");
    dmtk::sim::FmriOptions fo = run.toy ? kFmriToy : kFmri;
    fo.seed = run.input_seed(1);
    X = dmtk::tensor_cast<float>(dmtk::sim::make_fmri_tensor(fo).tensor);
    step.done();
  }
  reset_peak_rss();
  if (run.traced) probe_roofs<float>(out.metrics);

  const int untraced_jobs = run.traced ? 2 : 0;
  Tally tally;
  dmtk::KtensorF model;
  for (int j = 0;; ++j) {
    if (run.traced) trace().enable(j >= untraced_jobs);
    Step step("job " + std::to_string(j));
    Job job;
    Scope als("core.cp_als", j);
    const dmtk::CpAlsResultF res =
        dmtk::cp_als(X, als_options<float>(run, spec));
    const double als_s = als.stop();
    job.decompose_s = als_s;
    job.setup_s = fill_from_result(job, res, als_s);
    model = res.model;
    tally.add(std::move(job), res, spec);
    step.done();
    if (run.traced ? j + 1 == 2 * untraced_jobs
                   : !tally.another_fits(run, spec, 1.0)) {
      break;
    }
  }
  if (run.traced) {
    Metrics& m = out.metrics;
    probe_crc(m, X.data(), static_cast<std::size_t>(X.numel()) * sizeof(float));
    traced_batch_metrics(m, tally, untraced_jobs, X, model, spec,
                         run.input_seed(2));
  } else {
    tally.end_to_end(out.metrics);
    untraced_gate(X, model, spec, run.input_seed(2), tally);
  }
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.metrics["failed_frac"] = {failed_frac(out.failed, out.attempted), "ratio"};
  return out;
}

}  // namespace perfbench
