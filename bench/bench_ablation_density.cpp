/// \file bench_ablation_density.cpp
/// Quantifies the paper's motivating claim: dense tensors deserve dense
/// kernels. Both contenders run through the plan layer — dense 2-step via
/// MttkrpPlan, sparse CSF via SparseMttkrpPlan — so both sides enjoy
/// planned dispatch, precomputed thread tiling, and heap-free arena
/// execution, and the crossover is a kernel comparison rather than an
/// allocation-strategy artifact. The bench sweeps the density of a
/// fixed-shape tensor and reports where the dense kernel overtakes the
/// sparse one, with an fp32-storage CSF column showing the bandwidth
/// headroom of the float instantiation; --json writes the BENCH_*.json
/// record and --check turns the run into an equivalence gate: CSF against
/// the free COO sparse::mttkrp oracle and the dense plan, plus f32 vs f64
/// (CI's bench-smoke uses it).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "core/mttkrp.hpp"
#include "exec/mttkrp_plan.hpp"
#include "exec/sparse_mttkrp_plan.hpp"
#include "sparse/sparse_tensor.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

struct Case {
  double density = 0.0;
  long long nnz = 0;
  double dense_s = 0.0;
  double csf_s = 0.0;
  double csf32_s = 0.0;  ///< fp32-storage CSF plan (fp64 accumulators)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dmtk;
  const char* json_path = nullptr;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "bench-specific: --json <path>  write the BENCH_*.json record\n"
          "                --check        verify CSF == COO oracle == dense\n"
          "                               (and f32 CSF vs f64 to fp32\n"
          "                               rounding), fail on divergence\n");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json needs an output path\n");
        return 1;
      }
      json_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }
  const bench::Args args = bench::Args::parse(argc, argv, /*scale=*/0.002);
  bench::banner("Ablation: dense vs sparse MTTKRP across density (plans)",
                args);

  const index_t d = bench::cube_dim(3, args.scale);
  Rng rng(23);
  const index_t C = 25;
  std::vector<Matrix> fs;
  for (int n = 0; n < 3; ++n) fs.push_back(Matrix::random_uniform(d, C, rng));
  std::vector<MatrixF> fsf;
  for (const Matrix& U : fs) fsf.push_back(matrix_cast<float>(U));
  const int t = args.threads.back();
  // Pinned dense kernel (override with --method); the shape is fixed, so
  // one plan serves every density point.
  const MttkrpMethod dense_m =
      args.method_set ? args.method : MttkrpMethod::TwoStep;
  ExecContext ctx(t);
  const std::vector<index_t> dims{d, d, d};
  MttkrpPlan dense_plan(ctx, dims, C, 1, dense_m);

  std::printf("tensor %lld^3, C = %lld, threads = %d, dense method = %s\n",
              static_cast<long long>(d), static_cast<long long>(C), t,
              std::string(to_string(dense_plan.resolved_method())).c_str());
  std::printf("%-10s %-12s %-13s %-13s %-13s %-11s\n", "density", "nnz",
              "dense(s)", "csf-plan(s)", "csf-f32(s)", "dense-wins");
  bench::print_rule(76);

  std::vector<Case> cases;
  int failures = 0;
  for (double density : {0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    // Dense tensor with the requested fill; the dense kernel's cost is
    // density-independent, the sparse kernels' is ~linear in nnz.
    Tensor X({d, d, d});
    Rng fill = rng.split();
    for (index_t l = 0; l < X.numel(); ++l) {
      if (fill.uniform() < density) X[l] = fill.uniform(-1.0, 1.0);
    }
    const sparse::SparseTensor S = sparse::SparseTensor::from_dense(X);
    const sparse::SparseTensorF Sf = sparse::sparse_cast<float>(S);
    // Plan construction (CSF build included) is amortized setup, outside
    // the timed region — the ALS steady state this bench models.
    SparseMttkrpPlan csf_plan(ctx, S, C);
    SparseMttkrpPlanF csf32_plan(ctx, Sf, C);

    Matrix M(d, C);
    MatrixF M32(d, C);
    Case c;
    c.density = density;
    c.nnz = static_cast<long long>(S.nnz());
    c.dense_s = time_median(args.trials, [&] { dense_plan.execute(X, fs, M); });
    c.csf_s = time_median(args.trials, [&] { csf_plan.execute(1, fs, M); });
    c.csf32_s =
        time_median(args.trials, [&] { csf32_plan.execute(1, fsf, M32); });
    cases.push_back(c);
    std::printf("%-10.3f %-12lld %-13.4f %-13.4f %-13.4f %-11s\n",
                density, c.nnz, c.dense_s, c.csf_s, c.csf32_s,
                c.dense_s < c.csf_s ? "yes" : "no");

    if (check) {
      // The CSF plan must agree with the free COO oracle and the dense
      // plan (the property suite checks this on small shapes; here it runs
      // at bench scale as a smoke gate).
      Matrix Mcsf, Mcoo;
      csf_plan.execute(1, fs, Mcsf);
      sparse::mttkrp(S, fs, 1, Mcoo, t);
      dense_plan.execute(X, fs, M);
      csf32_plan.execute(1, fsf, M32);
      const double csf_vs_coo = Mcsf.max_abs_diff(Mcoo);
      const double csf_vs_dense = Mcsf.max_abs_diff(M);
      const double tol = 1e-8 * static_cast<double>(S.nnz() + 1);
      if (csf_vs_coo > tol || csf_vs_dense > tol) {
        std::fprintf(stderr,
                     "CHECK FAILED at density %.3f: |csf-coo| = %.3e, "
                     "|csf-dense| = %.3e (tol %.3e)\n",
                     density, csf_vs_coo, csf_vs_dense, tol);
        ++failures;
      }
      // The fp32 plan accumulates in fp64, so it tracks the double CSF to
      // input/output rounding — a loose fp32-scaled bound is enough to
      // catch a broken float instantiation.
      double f32_vs_csf = 0.0;
      for (index_t l = 0; l < Mcsf.rows() * Mcsf.cols(); ++l) {
        const double diff =
            std::abs(static_cast<double>(M32.data()[l]) - Mcsf.data()[l]);
        if (diff > f32_vs_csf) f32_vs_csf = diff;
      }
      const double tol32 = 1e-4 * static_cast<double>(S.nnz() + 1);
      if (f32_vs_csf > tol32) {
        std::fprintf(stderr,
                     "CHECK FAILED at density %.3f: |csf32-csf| = %.3e "
                     "(tol %.3e)\n",
                     density, f32_vs_csf, tol32);
        ++failures;
      }
    }
  }
  std::printf(
      "\nexpected: sparse wins at very low density; dense takes over well\n"
      "below full density — the regime the paper targets (dense data, e.g.\n"
      "fMRI correlations, has density 1.0). The fp32 CSF column streams\n"
      "half the value bytes per nonzero (accumulators stay fp64 either\n"
      "way).\n");
  if (check) {
    std::printf("equivalence check: %s\n", failures == 0 ? "PASS" : "FAIL");
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"ablation_density_plans\",\n");
    std::fprintf(f, "  \"schema\": 2,\n");
    std::fprintf(f, "  \"dim\": %lld,\n", static_cast<long long>(d));
    std::fprintf(f, "  \"rank\": %lld,\n", static_cast<long long>(C));
    std::fprintf(f, "  \"threads\": %d,\n", t);
    std::fprintf(f, "  \"trials\": %d,\n", args.trials);
    std::fprintf(f, "  \"scale\": %g,\n", args.scale);
    std::fprintf(f, "  \"dense_method\": \"%s\",\n",
                 std::string(to_string(dense_plan.resolved_method())).c_str());
    std::fprintf(f,
                 "  \"metric\": \"median seconds per mode-1 MTTKRP (plan "
                 "execute)\",\n");
    std::fprintf(f, "  \"cases\": [\n");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      std::fprintf(f,
                   "    {\"density\": %g, \"nnz\": %lld, \"dense_s\": %.6g, "
                   "\"csf_plan_s\": %.6g, \"csf_f32_plan_s\": %.6g, "
                   "\"dense_wins_vs_csf\": %s}%s\n",
                   c.density, c.nnz, c.dense_s, c.csf_s, c.csf32_s,
                   c.dense_s < c.csf_s ? "true" : "false",
                   i + 1 < cases.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return failures == 0 ? 0 : 1;
}
