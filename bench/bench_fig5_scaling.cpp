/// \file bench_fig5_scaling.cpp
/// Reproduces Figure 5 (a-d): MTTKRP time for the 1-step and 2-step
/// algorithms and the DGEMM baseline, for every mode of N-way cubic tensors
/// (N = 3..6), over a thread sweep — in BOTH precisions (f64 and the
/// templated core's f32 instantiation). C = 25 columns throughout.
///
/// The baseline follows the paper exactly: it is the time of ONE GEMM
/// between column-major matrices of the same dimensions as X(n) and the KRP
/// — a lower bound on the reorder-based approach that ignores reordering
/// and KRP formation costs.
///
/// Paper findings this harness checks (Section 5.3.1):
///  - sequential: 2-step >= baseline >= 1-step (1-step within 2x of
///    baseline; baseline within -25%/+3% of 2-step);
///  - 1-step and 2-step scale better than the baseline with threads;
///  - fp32 approaches 2x the fp64 throughput on the bandwidth-bound
///    shapes (the motivating economy of the scalar-templated core);
///  - the mixed-precision `acc64` rows (fp32 storage, fp64 accumulators:
///    an MttkrpPlanT<float> with MttkrpMethod::Acc64) price the
///    fp64-fit-floor recovery.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "blas/gemm.hpp"
#include "core/mttkrp.hpp"
#include "exec/mttkrp_plan.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace dmtk;

/// One timed row for the --json record.
struct SweepRow {
  index_t order;
  const char* method;  // "baseline" | "1-step" | "2-step" | "acc64"
  const char* precision;
  index_t mode;  // -1 for the baseline
  int threads;
  double seconds;
};

std::vector<SweepRow> g_rows;

/// Time of one GEMM with the MTTKRP's dimensions on plain column-major
/// operands (the paper's baseline), at scalar type T.
template <typename T>
double baseline_gemm_seconds(index_t In, index_t cols, index_t C, int threads,
                             int trials, Rng& rng) {
  MatrixT<T> A = MatrixT<T>::random_uniform(In, cols, rng);
  MatrixT<T> B = MatrixT<T>::random_uniform(cols, C, rng);
  MatrixT<T> M(In, C);
  return time_median(trials, [&] {
    blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans,
               blas::Trans::NoTrans, In, C, cols, T{1}, A.data(), A.ld(),
               B.data(), B.ld(), T{0}, M.data(), M.ld(), threads);
  });
}

/// One precision's sweep over modes and kernels at a fixed thread count.
template <typename T>
void run_precision(const TensorT<T>& X, const std::vector<MatrixT<T>>& fs,
                   const char* prec, index_t d, index_t C, int t,
                   const bench::Args& args, Rng& rng) {
  const index_t N = X.order();
  const double base =
      baseline_gemm_seconds<T>(d, X.cosize(0), C, t, args.trials, rng);
  std::printf("%-12s %-5s %-6s %-9d %-12.4f\n", "baseline", prec, "-", t,
              base);
  g_rows.push_back({N, "baseline", prec, -1, t, base});
  // One context per (precision, thread count); plans are built once per
  // (mode, method) outside the timing loop — what the plan API is for.
  ExecContext ctx(t);
  MatrixT<T> M(d, C);
  for (index_t mode = 0; mode < N; ++mode) {
    if (args.runs(MttkrpMethod::OneStep)) {
      MttkrpPlanT<T> plan(ctx, X.dims(), C, mode, MttkrpMethod::OneStep);
      const double s1 =
          time_median(args.trials, [&] { plan.execute(X, fs, M); });
      std::printf("%-12s %-5s %-6lld %-9d %-12.4f\n", "1-step", prec,
                  static_cast<long long>(mode), t, s1);
      g_rows.push_back({N, "1-step", prec, mode, t, s1});
    }
    if (twostep_is_defined(N, mode) && args.runs(MttkrpMethod::TwoStep)) {
      MttkrpPlanT<T> plan(ctx, X.dims(), C, mode, MttkrpMethod::TwoStep);
      const double s2 =
          time_median(args.trials, [&] { plan.execute(X, fs, M); });
      std::printf("%-12s %-5s %-6lld %-9d %-12.4f\n", "2-step", prec,
                  static_cast<long long>(mode), t, s2);
      g_rows.push_back({N, "2-step", prec, mode, t, s2});
    }
    // The mixed-precision path: fp32 streams, fp64 accumulators. Sits
    // between the f32 and f64 rows — it moves the f32 bytes but loses
    // the f32 FLOP-rate doubling inside its (unblocked) inner loop.
    if constexpr (std::is_same_v<T, float>) {
      if (args.runs(MttkrpMethod::Acc64)) {
        MttkrpPlanT<T> plan(ctx, X.dims(), C, mode, MttkrpMethod::Acc64);
        const double sa =
            time_median(args.trials, [&] { plan.execute(X, fs, M); });
        std::printf("%-12s %-5s %-6lld %-9d %-12.4f\n", "acc64",
                    "f32", static_cast<long long>(mode), t, sa);
        g_rows.push_back({N, "acc64", "f32", mode, t, sa});
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmtk;
  // --json is this bench's own flag (bench::Args ignores unknown ones).
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  const bench::Args args = bench::Args::parse(argc, argv, /*scale=*/0.005);
  bench::banner(
      "Figure 5: MTTKRP scaling — 1-step vs 2-step vs DGEMM, f64 vs f32",
      args);
  const index_t C = 25;
  Rng rng(99);

  for (index_t N = 3; N <= 6; ++N) {
    const index_t d = bench::cube_dim(N, args.scale);
    std::vector<index_t> dims(static_cast<std::size_t>(N), d);
    Tensor X = Tensor::random_uniform(dims, rng);
    std::vector<Matrix> fs;
    for (index_t n = 0; n < N; ++n) {
      fs.push_back(Matrix::random_uniform(d, C, rng));
    }
    // The fp32 problem is the fp64 one rounded, so the two columns time
    // the same arithmetic shape on the same values.
    TensorF Xf = tensor_cast<float>(X);
    std::vector<MatrixF> fsf;
    for (const Matrix& U : fs) fsf.push_back(matrix_cast<float>(U));

    std::printf("\n--- N = %lld: %lld^%lld = %lld entries ---\n",
                static_cast<long long>(N), static_cast<long long>(d),
                static_cast<long long>(N),
                static_cast<long long>(X.numel()));
    std::printf("%-12s %-5s %-6s %-9s %-12s\n", "method", "prec", "mode",
                "threads", "seconds");
    bench::print_rule(52);

    for (int t : args.threads) {
      run_precision<double>(X, fs, "f64", d, C, t, args, rng);
      run_precision<float>(Xf, fsf, "f32", d, C, t, args, rng);
    }
  }
  std::printf(
      "\nexpected shape (paper 5.3.1): sequentially 2-step <= baseline <= "
      "1-step\n(1-step <= 2x baseline); 1-step/2-step scale better than "
      "baseline; f32 rows\napproach half the f64 seconds on bandwidth-bound "
      "shapes.\n");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig5_scaling\",\n");
    std::fprintf(f, "  \"scale\": %g,\n  \"rank\": %lld,\n", args.scale,
                 static_cast<long long>(C));
    std::fprintf(f, "  \"trials\": %d,\n  \"rows\": [\n", args.trials);
    for (std::size_t i = 0; i < g_rows.size(); ++i) {
      const SweepRow& r = g_rows[i];
      std::fprintf(f,
                   "    {\"order\": %lld, \"method\": \"%s\", "
                   "\"precision\": \"%s\", \"mode\": %lld, \"threads\": %d, "
                   "\"median_seconds\": %.6f}%s\n",
                   static_cast<long long>(r.order), r.method, r.precision,
                   static_cast<long long>(r.mode), r.threads, r.seconds,
                   i + 1 < g_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
