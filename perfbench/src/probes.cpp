/// Per-layer probes of the traced run. Each one times a public dmtk call
/// at the workload's shapes. Plans are built first and executed once
/// untimed, so warm plans are compared with warm plans; the reported value
/// is the median of the timed repeats.

#include <unistd.h>

#include <cmath>
#include <functional>

#include "bench.hpp"
#include "util/crc32.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 3;

/// One untimed warm-up call, then the median of `reps` timed calls, each
/// recorded as a span named `name`.
double warm_median(const std::string& name, int reps,
                   const std::function<void()>& call) {
  call();
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    Scope sc(name);
    call();
    s.push_back(sc.stop());
  }
  return median(s);
}

void put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit};
}

index_t prod(std::span<const index_t> dims, index_t a, index_t b) {
  index_t p = 1;
  for (index_t k = a; k < b; ++k) p *= dims[static_cast<std::size_t>(k)];
  return p;
}

/// A contraction below the root of a full binary dimension tree: the
/// parent's intermediate (src_rows x C per component) contracted against
/// the sibling interval's KRP (trim_rows long), leaving dst_rows.
struct TreeContraction {
  index_t src_rows = 0;
  index_t trim_rows = 0;
  index_t dst_rows = 0;
  bool contract_left = false;
};

/// The contractions of every node below the root's children, derived from
/// the split rule the plan uses.
void tree_contractions(std::span<const index_t> dims, index_t a, index_t b,
                       std::vector<TreeContraction>& out) {
  if (b - a < 2) return;
  const index_t s = dmtk::sweep_balanced_split(dims, a, b);
  const index_t src = prod(dims, a, b);
  // Child [a, s) contracts the trailing interval [s, b); child [s, b) the
  // leading interval [a, s).
  for (int side = 0; side < 2; ++side) {
    const index_t ca = side == 0 ? a : s;
    const index_t cb = side == 0 ? s : b;
    out.push_back(TreeContraction{src, side == 0 ? prod(dims, s, b)
                                                 : prod(dims, a, s),
                                  prod(dims, ca, cb), side == 1});
    tree_contractions(dims, ca, cb, out);
  }
}

}  // namespace

std::size_t stream_roof_bytes() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  return 4 * static_cast<std::size_t>(llc);
}

template <typename T>
void probe_roofs(Metrics& m) {
  {
    Step step("roof.stream");
    const std::size_t n = stream_roof_bytes() / sizeof(double);
    std::vector<double> buf(n);
#pragma omp parallel for num_threads(kThreads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) buf[i] = 1.0;
    for (int t : {1, kThreads}) {
      double sum = 0.0;
      const double s = warm_median(
          "roof.stream.t" + std::to_string(t), kReps, [&] {
            double acc = 0.0;
#pragma omp parallel for simd num_threads(t) schedule(static) reduction(+ : acc)
            for (std::size_t i = 0; i < n; ++i) acc += buf[i];
            sum = acc;
          });
      if (sum != static_cast<double>(n)) {
        throw std::runtime_error("stream roof: wrong sum");
      }
      put(m, "roof.stream_GBps.t" + std::to_string(t),
          static_cast<double>(n * sizeof(double)) / s / 1e9, "GB/s");
    }
    step.done();
  }
  {
    Step step("roof.gemm");
    const index_t n = kGemmRoofN;
    dmtk::Rng rng(11);
    const auto A = dmtk::MatrixT<T>::random_uniform(n, n, rng);
    const auto B = dmtk::MatrixT<T>::random_uniform(n, n, rng);
    dmtk::MatrixT<T> Cm(n, n);
    for (int t : {1, kThreads}) {
      const double s = warm_median(
          "roof.gemm.t" + std::to_string(t), kReps, [&] {
            dmtk::blas::gemm(dmtk::blas::Layout::ColMajor,
                             dmtk::blas::Trans::NoTrans,
                             dmtk::blas::Trans::NoTrans, n, n, n, T{1},
                             A.data(), n, B.data(), n, T{0}, Cm.data(), n, t);
          });
      put(m, "roof.gemm_GFLOPs.t" + std::to_string(t),
          2.0 * std::pow(static_cast<double>(n), 3) / s / 1e9, "GFLOP/s");
    }
    step.done();
  }
}

template void probe_roofs<double>(Metrics&);
template void probe_roofs<float>(Metrics&);

double probe_crc(Metrics& m, const void* data, std::size_t bytes) {
  Step step("util.crc32");
  // A payload-sized pass over a big buffer takes seconds; repeat only
  // buffers small enough to repeat cheaply.
  const int reps = bytes > (std::size_t{64} << 20) ? 1 : 5;
  std::vector<double> s;
  std::uint32_t first = 0;
  for (int r = 0; r < reps; ++r) {
    Scope sc("util.crc32");
    const std::uint32_t crc = dmtk::util::crc32(data, bytes);
    s.push_back(sc.stop());
    if (r == 0) first = crc;
    if (crc != first) throw std::runtime_error("crc32 is not repeatable");
  }
  const double sec = median(s);
  put(m, "util.crc32_GBps", static_cast<double>(bytes) / sec / 1e9, "GB/s");
  step.done();
  return sec;
}

template <typename T>
std::vector<dmtk::MatrixT<T>> probe_layers(Metrics& m,
                                           const dmtk::TensorT<T>& X,
                                           const dmtk::KtensorT<T>& model,
                                           dmtk::SweepScheme scheme) {
  using dmtk::blas::Layout;
  using dmtk::blas::Trans;
  const std::span<const index_t> dims = X.dims();
  const index_t N = X.order();
  const index_t C = model.rank();
  const std::vector<dmtk::MatrixT<T>>& U = model.factors;
  const double elem = sizeof(T);
  const double I = static_cast<double>(X.numel());

  {
    Step step("exec.plan");
    std::vector<double> s;
    double arena = 0.0;
    for (int r = 0; r < kReps; ++r) {
      dmtk::ExecContext ctx(kThreads);
      Scope sc("exec.plan");
      dmtk::CpAlsSweepPlanT<T> plan(ctx, dims, C, scheme);
      s.push_back(sc.stop());
      arena = static_cast<double>(ctx.arena().capacity());
    }
    put(m, "exec.plan_s", median(s), "s");
    put(m, "exec.arena_MB", arena / 1e6, "MB");
    step.done();
  }

  Step step_modes("exec.mode_mttkrp");
  dmtk::ExecContext ctx(kThreads);
  dmtk::CpAlsSweepPlanT<T> plan(ctx, dims, C, scheme);
  std::vector<dmtk::MatrixT<T>> Ms = plan_mttkrps(plan, X, U);
  // Five sweeps: these medians are subtracted from sweep_s in
  // trace.unaccounted_frac, so they get more repeats than the other probes.
  std::vector<std::vector<double>> mode_s(static_cast<std::size_t>(N));
  for (int r = 0; r < 5; ++r) {
    Scope sweep("exec.sweep");
    for (index_t n = 0; n < N; ++n) {
      Scope sc("exec.mode_mttkrp.m" + std::to_string(n));
      if (n == 0) plan.begin_sweep(X);
      plan.mode_mttkrp(n, X, U, Ms[static_cast<std::size_t>(n)]);
      mode_s[static_cast<std::size_t>(n)].push_back(sc.stop());
    }
  }
  double modes_total = 0.0;
  for (index_t n = 0; n < 4; ++n) {
    const double v =
        n < N ? median(mode_s[static_cast<std::size_t>(n)]) : 0.0;
    modes_total += v;
    put(m, "exec.mode_mttkrp_s.m" + std::to_string(n), v, "s");
  }
  step_modes.done();

  {
    Step step("exec.sweep_1t");
    dmtk::ExecContext ctx1(1);
    dmtk::CpAlsSweepPlanT<T> plan1(ctx1, dims, C, scheme);
    std::vector<dmtk::MatrixT<T>> M1(U.size());
    const double s = warm_median("exec.sweep_1t", 2, [&] {
      plan1.begin_sweep(X);
      for (index_t n = 0; n < N; ++n) {
        plan1.mode_mttkrp(n, X, U, M1[static_cast<std::size_t>(n)]);
      }
    });
    put(m, "exec.sweep_s_1t", s, "s");
    put(m, "exec.speedup_t4", s / modes_total, "x");
    step.done();
  }

  // Computed traffic and work of one sweep's MTTKRPs: PerMode passes the
  // tensor once per mode; the tree passes it twice (the root's children)
  // and then reads each intermediate once per contraction.
  std::vector<TreeContraction> tree;
  const bool dimtree = plan.scheme() == dmtk::SweepScheme::DimTree;
  if (dimtree) {
    const index_t s = dmtk::sweep_balanced_split(dims, 0, N);
    tree_contractions(dims, 0, s, tree);
    tree_contractions(dims, s, N, tree);
  }
  double bytes = (dimtree ? 2.0 : static_cast<double>(N)) * I * elem;
  double flops = (dimtree ? 2.0 : static_cast<double>(N)) * 2.0 * I * C;
  for (const TreeContraction& tc : tree) {
    bytes += static_cast<double>(tc.src_rows * C) * elem;
    flops += 2.0 * static_cast<double>(tc.src_rows * C);
  }
  put(m, "core.mttkrp_MB", bytes / 1e6, "MB");
  put(m, "core.mttkrp_GFLOP", flops / 1e9, "GFLOP");
  put(m, "exec.mttkrp_GBps", bytes / modes_total / 1e9, "GB/s");
  put(m, "exec.mttkrp_roof_frac",
      bytes / modes_total / 1e9 / m.at("roof.stream_GBps.t" +
                                       std::to_string(kThreads)).value,
      "ratio");

  {
    // The sweep's first full-tensor GEMM: mode 0 for PerMode (X(0) in
    // place against the mode-0 KRP), the root's left child for the tree
    // (X viewed as prod dims[0, s) x prod dims[s, N)).
    Step step("blas.gemm_mttkrp");
    const index_t s = dimtree ? dmtk::sweep_balanced_split(dims, 0, N) : 1;
    const dmtk::FactorListT<T> fl = dmtk::right_krp_factors(U, s - 1);
    const index_t rows = prod(dims, 0, s);
    const index_t k = prod(dims, s, N);
    dmtk::MatrixT<T> Kt;
    const double krp_s = warm_median("core.krp", kReps, [&] {
      Kt = dmtk::krp_transposed(fl, dmtk::KrpVariant::Reuse, kThreads);
    });
    dmtk::MatrixT<T> out(rows, C);
    const double gemm_s = warm_median("blas.gemm_mttkrp", kReps, [&] {
      dmtk::blas::gemm(Layout::ColMajor, Trans::NoTrans, Trans::Trans, rows,
                       C, k, T{1}, X.data(), rows, Kt.data(), C, T{0},
                       out.data(), rows, kThreads);
    });
    const double gflops = 2.0 * static_cast<double>(rows) *
                          static_cast<double>(C) * static_cast<double>(k) /
                          gemm_s / 1e9;
    put(m, "core.krp_s", krp_s, "s");
    put(m, "blas.gemm_mttkrp_s", gemm_s, "s");
    put(m, "blas.gemm_mttkrp_GFLOPs", gflops, "GFLOP/s");
    put(m, "blas.gemm_mttkrp_roof_frac",
        gflops / m.at("roof.gemm_GFLOPs.t" + std::to_string(kThreads)).value,
        "ratio");
    step.done();
  }

  if (dimtree) {
    // The tree's node contractions, with the arguments the plan passes:
    // one m x 1 x k GEMM per component, batch = C.
    Step step("blas.gemm_batched");
    struct Buffers {
      std::vector<T> src, krp, dst;
      std::vector<const T*> a, b;
      std::vector<T*> c;
    };
    std::vector<Buffers> bufs(tree.size());
    dmtk::Rng rng(13);
    for (std::size_t t = 0; t < tree.size(); ++t) {
      const TreeContraction& tc = tree[t];
      Buffers& bf = bufs[t];
      bf.src.resize(static_cast<std::size_t>(tc.src_rows * C));
      bf.krp.resize(static_cast<std::size_t>(tc.trim_rows * C));
      bf.dst.resize(static_cast<std::size_t>(tc.dst_rows * C));
      dmtk::fill_uniform(std::span<T>(bf.src), rng);
      dmtk::fill_uniform(std::span<T>(bf.krp), rng);
      for (index_t c = 0; c < C; ++c) {
        bf.a.push_back(bf.src.data() + c * tc.src_rows);
        bf.b.push_back(bf.krp.data() + c);
        bf.c.push_back(bf.dst.data() + c * tc.dst_rows);
      }
    }
    const double s = warm_median("blas.gemm_batched", kReps, [&] {
      for (std::size_t t = 0; t < tree.size(); ++t) {
        const TreeContraction& tc = tree[t];
        dmtk::blas::gemm_batched(
            Layout::ColMajor, tc.contract_left ? Trans::Trans : Trans::NoTrans,
            Trans::Trans, tc.dst_rows, index_t{1}, tc.trim_rows, T{1},
            bufs[t].a.data(), tc.contract_left ? tc.trim_rows : tc.dst_rows,
            bufs[t].b.data(), C, T{0}, bufs[t].c.data(), tc.dst_rows, C,
            kThreads);
      }
    });
    put(m, "blas.gemm_batched_s", s, "s");
    step.done();
  }

  {
    // Per sweep: one C x C Gram per mode, one solve with I_n right-hand
    // sides per mode — the ALS loop's non-MTTKRP work.
    Step step("blas.syrk+linalg.solve");
    std::vector<dmtk::MatrixT<T>> grams(U.size());
    for (auto& G : grams) G = dmtk::MatrixT<T>(C, C);
    const double syrk_s = warm_median("blas.syrk", kReps, [&] {
      for (std::size_t n = 0; n < U.size(); ++n) {
        dmtk::blas::syrk(Trans::Trans, C, U[n].rows(), T{1}, U[n].data(),
                         U[n].ld(), T{0}, grams[n].data(), C, kThreads);
      }
    });
    std::vector<dmtk::MatrixT<T>> H(U.size());
    for (index_t n = 0; n < N; ++n) {
      H[static_cast<std::size_t>(n)] = dmtk::hadamard_of_grams(grams, n);
    }
    std::vector<double> s;
    for (int r = 0; r <= kReps; ++r) {
      std::vector<dmtk::MatrixT<T>> Hc = H;
      std::vector<dmtk::MatrixT<T>> Mc = Ms;
      Scope sc("linalg.solve");
      for (std::size_t n = 0; n < U.size(); ++n) {
        dmtk::linalg::spd_solve_right(C, Hc[n].data(), Hc[n].ld(),
                                      Mc[n].rows(), Mc[n].data(),
                                      Mc[n].ld(), kThreads);
      }
      if (r > 0) s.push_back(sc.stop());
    }
    put(m, "blas.syrk_s", syrk_s, "s");
    put(m, "linalg.solve_s", median(s), "s");
    step.done();
  }
  return Ms;
}

template std::vector<dmtk::Matrix> probe_layers<double>(
    Metrics&, const dmtk::Tensor&, const dmtk::Ktensor&, dmtk::SweepScheme);
template std::vector<dmtk::MatrixF> probe_layers<float>(
    Metrics&, const dmtk::TensorF&, const dmtk::KtensorF&, dmtk::SweepScheme);

}  // namespace perfbench
