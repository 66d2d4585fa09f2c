// Dimension-tree CP-ALS (the paper's Section 6 extension, run through
// `CpAlsOptions::sweep_scheme = SweepScheme::DimTree`): must produce the
// SAME iterates as the per-mode sweep — it is an algebraic rearrangement,
// not an approximation — while touching the full tensor only twice per
// sweep.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/cp_als.hpp"
#include "test_helpers.hpp"

namespace dmtk {
namespace {

/// `opts` with the sweep pinned to the dimension tree.
CpAlsOptions dimtree(CpAlsOptions opts) {
  opts.sweep_scheme = SweepScheme::DimTree;
  return opts;
}

/// `opts` with the sweep pinned to the per-mode kernels (Auto would pick
/// the tree itself at N >= 4).
CpAlsOptions permode(CpAlsOptions opts) {
  opts.sweep_scheme = SweepScheme::PerMode;
  return opts;
}

class DimtreeShapes
    : public ::testing::TestWithParam<std::vector<index_t>> {};

TEST_P(DimtreeShapes, MatchesStandardCpAlsTrajectory) {
  const std::vector<index_t> dims = GetParam();
  Rng rng(41);
  Tensor X = Tensor::random_uniform(dims, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 4;
  opts.tol = 0.0;
  opts.seed = 5;
  const CpAlsResult std_r = cp_als(X, permode(opts));
  const CpAlsResult dt_r = cp_als(X, dimtree(opts));
  ASSERT_EQ(std_r.iterations, dt_r.iterations);
  EXPECT_NEAR(std_r.final_fit, dt_r.final_fit, 1e-9);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    EXPECT_LT(std_r.model.factors[n].max_abs_diff(dt_r.model.factors[n]),
              1e-7)
        << "factor " << n;
  }
  for (index_t c = 0; c < opts.rank; ++c) {
    EXPECT_NEAR(std_r.model.lambda[static_cast<std::size_t>(c)],
                dt_r.model.lambda[static_cast<std::size_t>(c)], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DimtreeShapes,
    ::testing::Values(std::vector<index_t>{6, 7},          // 2-way edge
                      std::vector<index_t>{5, 6, 7},       // 3-way
                      std::vector<index_t>{9, 2, 8},       // skewed 3-way
                      std::vector<index_t>{4, 5, 3, 6},    // 4-way
                      std::vector<index_t>{3, 4, 2, 3, 4}, // 5-way
                      std::vector<index_t>{2, 3, 2, 2, 3, 2}));  // 6-way

TEST(Dimtree, RecoversLowRankTensor) {
  Rng rng(42);
  Ktensor truth = Ktensor::random(std::array<index_t, 4>{7, 6, 5, 4}, 2, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 300;
  opts.tol = 1e-10;
  const CpAlsResult r = cp_als(X, dimtree(opts));
  EXPECT_GT(r.final_fit, 0.999);
  EXPECT_GT(factor_match_score(r.model, truth), 0.99);
}

TEST(Dimtree, ConvergenceFlagWorks) {
  Rng rng(43);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{8, 8, 8}, 2, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 500;
  opts.tol = 1e-7;
  const CpAlsResult r = cp_als(X, dimtree(opts));
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 500);
}

TEST(Dimtree, ThreadInvariant) {
  Rng rng(44);
  Tensor X = Tensor::random_uniform({6, 7, 8}, rng);
  CpAlsOptions o1;
  o1.rank = 3;
  o1.max_iters = 3;
  o1.tol = 0.0;
  CpAlsOptions o4 = o1;
  o1.threads = 1;
  o4.threads = 4;
  const CpAlsResult r1 = cp_als(X, dimtree(o1));
  const CpAlsResult r4 = cp_als(X, dimtree(o4));
  EXPECT_NEAR(r1.final_fit, r4.final_fit, 1e-9);
}

TEST(Dimtree, WarmStartSupported) {
  Rng rng(45);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{6, 6, 6}, 2, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 10;
  opts.tol = 1e-9;
  opts.initial_guess = &truth;
  const CpAlsResult r = cp_als(X, dimtree(opts));
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.final_fit, 1.0 - 1e-6);
}

TEST(Dimtree, FewerFullTensorPassesReflectedInTime) {
  // Not a strict timing test (CI noise), but on a clearly MTTKRP-bound
  // problem the dimension-tree sweep should not be slower than standard.
  // Each pipeline is timed three times and the MINIMA compared: a single
  // pass is at the mercy of whatever else ctest -j runs concurrently on a
  // small box, and one descheduled sweep used to flip the comparison.
  Rng rng(46);
  Tensor X = Tensor::random_uniform({40, 40, 40, 10}, rng);
  CpAlsOptions opts;
  opts.rank = 8;
  opts.max_iters = 3;
  opts.tol = 0.0;
  opts.compute_fit = false;
  auto mttkrp_time = [](const CpAlsResult& r) {
    double s = 0.0;
    for (const auto& it : r.iters) s += it.mttkrp_seconds;
    return s;
  };
  double std_time = std::numeric_limits<double>::infinity();
  double dt_time = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    std_time = std::min(std_time, mttkrp_time(cp_als(X, permode(opts))));
    dt_time = std::min(dt_time, mttkrp_time(cp_als(X, dimtree(opts))));
  }
  EXPECT_LT(dt_time, std_time * 1.5);  // generous bound; typically < 0.7x
}

TEST(Dimtree, RejectsBadOptions) {
  Rng rng(47);
  Tensor X = Tensor::random_uniform({4, 4, 4}, rng);
  CpAlsOptions opts;
  opts.rank = 0;
  EXPECT_THROW(cp_als(X, dimtree(opts)), DimensionError);
}

}  // namespace
}  // namespace dmtk
