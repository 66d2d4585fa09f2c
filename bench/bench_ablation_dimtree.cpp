/// \file bench_ablation_dimtree.cpp
/// Validates the paper's Section 6 projection for its stated future work:
/// sharing partial MTTKRPs across the modes of a sweep via the Phan et al.
/// dimension-tree scheme "could expect a further reduction in per-iteration
/// CP-ALS time of around 50% in the 3D case and 2x in the 4D case (and
/// higher for larger N)". The scheme now lives in the sweep-plan layer
/// (SweepScheme::DimTree, the two-group tree); this bench measures
/// per-sweep MTTKRP seconds of the standard PerMode sweep against it for
/// N = 3..6 cubes. --json writes the BENCH_pr3.json record.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/cp_als.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace dmtk;

double mttkrp_seconds_per_sweep(const Tensor& X, index_t rank, int threads,
                                SweepScheme scheme, int sweeps) {
  ExecContext ctx(threads);
  CpAlsOptions opts;
  opts.rank = rank;
  opts.max_iters = sweeps;
  opts.tol = 0.0;
  opts.compute_fit = false;
  opts.exec = &ctx;
  opts.sweep_scheme = scheme;
  const CpAlsResult r = cp_als(X, opts);
  std::vector<double> per_sweep;
  for (const auto& it : r.iters) per_sweep.push_back(it.mttkrp_seconds);
  return median(per_sweep);
}

struct Case {
  index_t order = 0;
  index_t dim = 0;
  int threads = 1;
  double permode_s = 0.0;
  double dimtree_s = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dmtk;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      // Args::parse prints the shared flags and exits; announce the one it
      // does not know about first so --help documents the full surface.
      std::printf("bench-specific: --json <path>  write the BENCH_*.json "
                  "record\n");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json needs an output path\n");
        return 1;
      }
      json_path = argv[i + 1];
    }
  }
  const bench::Args args = bench::Args::parse(argc, argv, /*scale=*/0.005);
  bench::banner(
      "Ablation: dimension-tree sweep scheme (Sec 6) vs per-mode sweeps",
      args);
  const index_t C = 25;
  Rng rng(17);
  const int sweeps = std::max(2, args.trials);
  std::vector<Case> cases;

  std::printf("%-4s %-8s %-5s %-14s %-14s %-9s %-10s\n", "N", "dim", "thr",
              "permode(s/sw)", "dimtree(s/sw)", "speedup", "paper-proj");
  bench::print_rule(69);
  for (index_t N = 3; N <= 6; ++N) {
    const index_t d = bench::cube_dim(N, args.scale);
    std::vector<index_t> dims(static_cast<std::size_t>(N), d);
    Tensor X = Tensor::random_uniform(dims, rng);
    for (int t : args.threads) {
      Case c;
      c.order = N;
      c.dim = d;
      c.threads = t;
      c.permode_s = mttkrp_seconds_per_sweep(X, C, t, SweepScheme::PerMode,
                                             sweeps);
      c.dimtree_s = mttkrp_seconds_per_sweep(X, C, t, SweepScheme::DimTree,
                                             sweeps);
      cases.push_back(c);
      const char* proj = (N == 3) ? "~1.5x" : (N == 4) ? "~2x" : ">2x";
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx",
                    c.permode_s / c.dimtree_s);
      std::printf("%-4lld %-8lld %-5d %-14.4f %-14.4f %-9s %-10s\n",
                  static_cast<long long>(N), static_cast<long long>(d), t,
                  c.permode_s, c.dimtree_s, speedup, proj);
    }
  }
  std::printf(
      "\nexpected: speedup grows with N (two full-tensor passes per sweep\n"
      "instead of N).\n");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"ablation_dimtree_sweep\",\n");
    std::fprintf(f, "  \"schema\": 1,\n");
    std::fprintf(f, "  \"rank\": %lld,\n", static_cast<long long>(C));
    std::fprintf(f, "  \"sweeps\": %d,\n", sweeps);
    std::fprintf(f, "  \"scale\": %g,\n", args.scale);
    std::fprintf(f, "  \"metric\": \"median MTTKRP seconds per ALS sweep\",\n");
    std::fprintf(f, "  \"cases\": [\n");
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      std::fprintf(f,
                   "    {\"order\": %lld, \"dim\": %lld, \"threads\": %d, "
                   "\"permode_s_per_sweep\": %.6g, "
                   "\"dimtree_s_per_sweep\": %.6g, "
                   "\"speedup\": %.4g}%s\n",
                   static_cast<long long>(c.order),
                   static_cast<long long>(c.dim), c.threads, c.permode_s,
                   c.dimtree_s, c.permode_s / c.dimtree_s,
                   i + 1 < cases.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
