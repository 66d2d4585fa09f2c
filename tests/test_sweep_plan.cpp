// Coverage for the CP-ALS sweep planner (exec/sweep_plan.hpp): DimTree
// leaf MTTKRPs vs the Reference oracle across orders 2-6 and degenerate
// shapes (one- and two-sided group recoveries), DimTree-vs-PerMode driver
// iterate equivalence, plan reuse across factorizations, the in-order
// sweep protocol, and the zero-allocation contract (arena instrumentation
// + blas::gemm_internal_allocs) over full dimension-tree sweeps.

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "blas/gemm_workspace.hpp"
#include "core/cp_als.hpp"
#include "core/cp_nn.hpp"
#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/sweep_plan.hpp"
#include "test_helpers.hpp"

namespace dmtk {
namespace {

using testing::expect_matrix_near;
using testing::random_factors;

/// One sweep with FIXED factors: every DimTree leaf must then equal the
/// plain mode-n MTTKRP (the tree is an algebraic rearrangement).
void expect_leaves_match_reference(const std::vector<index_t>& dims,
                                   index_t rank, int threads,
                                   SweepScheme scheme = SweepScheme::DimTree) {
  Rng rng(100 + static_cast<std::uint64_t>(dims.size()) +
          static_cast<std::uint64_t>(rank));
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, rank, rng);
  ExecContext ctx(threads);
  CpAlsSweepPlan plan(ctx, X.dims(), rank, scheme);
  plan.begin_sweep(X);
  Matrix M;
  for (index_t n = 0; n < X.order(); ++n) {
    plan.mode_mttkrp(n, X, fs, M);
    const Matrix ref = mttkrp(X, fs, n, MttkrpMethod::Reference);
    SCOPED_TRACE("scheme=" + std::string(to_string(plan.scheme())) +
                 " mode=" + std::to_string(n) +
                 " threads=" + std::to_string(threads));
    expect_matrix_near(M, ref, 1e-9);
  }
}

TEST(SweepPlanDimTree, LeavesMatchReferenceAcrossOrders) {
  const std::vector<std::vector<index_t>> shapes = {
      {5, 4},                 // 2-way: both root children are leaves
      {5, 4, 6},              // 3-way
      {3, 4, 2, 5},           // 4-way: 2 | 2 groups, one-sided leaves
      {3, 2, 4, 2, 3},        // 5-way: 3 | 2 groups
      {2, 3, 2, 2, 3, 2},     // 6-way: 3 | 3, two-sided middle leaves
  };
  for (const auto& dims : shapes) {
    for (int threads : {1, 3}) {
      expect_leaves_match_reference(dims, 3, threads);
    }
  }
}

TEST(SweepPlanDimTree, DegenerateShapes) {
  // A mode of extent 1 (leading, internal, trailing), rank 1, and rank
  // larger than every extent.
  expect_leaves_match_reference({1, 4, 3}, 3, 2);
  expect_leaves_match_reference({4, 1, 3, 2}, 2, 2);
  expect_leaves_match_reference({3, 4, 1}, 2, 1);
  expect_leaves_match_reference({3, 2, 4}, 1, 2);
  expect_leaves_match_reference({3, 2, 4, 2}, 7, 3);
  expect_leaves_match_reference({2, 1, 2, 1, 3}, 4, 2);
}

TEST(SweepPlanDimTree, TwoGroupTreeNodes) {
  // The root splits once into two groups (depth 0); a group of two or more
  // modes has one leaf per mode below it (depth 1), and a one-mode group
  // is its own leaf.
  ExecContext ctx(1);
  using Node = std::array<index_t, 3>;  // first, last, depth
  const auto nodes_of = [&ctx](std::vector<index_t> dims) {
    CpAlsSweepPlan plan(ctx, dims, 2, SweepScheme::DimTree);
    std::vector<Node> nodes;
    for (const SweepNodeTimings& tm : plan.timings().nodes) {
      nodes.push_back({tm.first, tm.last, tm.depth});
    }
    return nodes;
  };
  EXPECT_EQ(nodes_of({4, 4, 4, 4}),
            (std::vector<Node>{{0, 2, 0}, {0, 1, 1}, {1, 2, 1},
                               {2, 4, 0}, {2, 3, 1}, {3, 4, 1}}));
  EXPECT_EQ(nodes_of({100, 2, 2}),
            (std::vector<Node>{{0, 1, 0}, {1, 3, 0}, {1, 2, 1}, {2, 3, 1}}));
  EXPECT_EQ(nodes_of({2, 3, 2, 2, 3, 2}),
            (std::vector<Node>{{0, 3, 0}, {0, 1, 1}, {1, 2, 1}, {2, 3, 1},
                               {3, 6, 0}, {3, 4, 1}, {4, 5, 1}, {5, 6, 1}}));
}

TEST(SweepPlanDimTree, PerModeSchemeThroughSameInterface) {
  expect_leaves_match_reference({5, 4, 6}, 3, 2, SweepScheme::PerMode);
  expect_leaves_match_reference({3, 4, 2, 5}, 4, 1, SweepScheme::PerMode);
}

TEST(SweepPlanDimTree, PlanReuseAcrossFactorizations) {
  // One plan, several sweeps with fresh factor values — the ALS pattern
  // across two factorizations of the same shape.
  const std::vector<index_t> dims{4, 3, 5, 2};
  Rng rng(77);
  Tensor X = Tensor::random_uniform(dims, rng);
  ExecContext ctx(2);
  CpAlsSweepPlan plan(ctx, X.dims(), 3, SweepScheme::DimTree);
  Matrix M;
  for (int round = 0; round < 3; ++round) {
    const std::vector<Matrix> fs = random_factors(dims, 3, rng);
    plan.begin_sweep(X);
    for (index_t n = 0; n < X.order(); ++n) {
      plan.mode_mttkrp(n, X, fs, M);
      expect_matrix_near(M, mttkrp(X, fs, n, MttkrpMethod::Reference), 1e-9);
    }
  }
  EXPECT_EQ(ctx.arena().in_use(), 0u);
}

TEST(SweepPlanDimTree, SchemeMetadata) {
  ExecContext ctx(1);
  const std::vector<index_t> dims{2, 3, 2, 2, 3, 2};
  CpAlsSweepPlan permode(ctx, dims, 2, SweepScheme::PerMode);
  EXPECT_EQ(permode.scheme(), SweepScheme::PerMode);
  // Auto heuristic: DimTree for N >= 4, PerMode below.
  CpAlsSweepPlan auto6(ctx, dims, 2, SweepScheme::Auto);
  EXPECT_EQ(auto6.requested_scheme(), SweepScheme::Auto);
  EXPECT_EQ(auto6.scheme(), SweepScheme::DimTree);
  CpAlsSweepPlan auto3(ctx, {std::vector<index_t>{4, 5, 6}}, 2,
                       SweepScheme::Auto);
  EXPECT_EQ(auto3.scheme(), SweepScheme::PerMode);
  // An explicit per-mode kernel pins PerMode under Auto even at N >= 4 —
  // the tree would silently discard the requested method otherwise.
  CpAlsSweepPlan pinned(ctx, dims, 2, SweepScheme::Auto,
                        MttkrpMethod::TwoStep);
  EXPECT_EQ(pinned.scheme(), SweepScheme::PerMode);
}

TEST(SweepSchemeAuto, HeuristicPicksDimTreeForHighOrderDenseOnly) {
  // The resolution rule itself: PerMode through order 3, DimTree from 4 —
  // and never a sparse scheme for dense input (sparse resolution happens
  // in the sparse plan constructor, not here).
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, 2), SweepScheme::PerMode);
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, 3), SweepScheme::PerMode);
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, 4), SweepScheme::DimTree);
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, 6), SweepScheme::DimTree);
  // An explicit per-mode kernel pins PerMode under Auto at any order.
  EXPECT_EQ(
      resolve_sweep_scheme(SweepScheme::Auto, 5, MttkrpMethod::TwoStep),
      SweepScheme::PerMode);
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::DimTree, 5,
                                 MttkrpMethod::TwoStep),
            SweepScheme::DimTree);  // explicit scheme still wins
  // The sparse resolver: Auto -> CSF, explicit schemes pass through.
  EXPECT_EQ(resolve_sparse_sweep_scheme(SweepScheme::Auto),
            SweepScheme::SparseCsf);
  EXPECT_EQ(resolve_sparse_sweep_scheme(SweepScheme::SparseCoo),
            SweepScheme::SparseCoo);
  // Explicit requests pass through untouched at any order.
  for (index_t order : {index_t{2}, index_t{5}}) {
    EXPECT_EQ(resolve_sweep_scheme(SweepScheme::PerMode, order),
              SweepScheme::PerMode);
    EXPECT_EQ(resolve_sweep_scheme(SweepScheme::DimTree, order),
              SweepScheme::DimTree);
    EXPECT_EQ(resolve_sweep_scheme(SweepScheme::SparseCsf, order),
              SweepScheme::SparseCsf);
  }
}


// ---------------------------------------------------------------------------
// Driver equivalence: DimTree and PerMode sweeps produce the same ALS
// iterates (algebraic rearrangement, not an approximation).
// ---------------------------------------------------------------------------

class SweepSchemeShapes
    : public ::testing::TestWithParam<std::vector<index_t>> {};

TEST_P(SweepSchemeShapes, DimTreeVsPerModeIterates) {
  const std::vector<index_t> dims = GetParam();
  Rng rng(51);
  Tensor X = Tensor::random_uniform(dims, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 4;
  opts.tol = 0.0;
  opts.seed = 9;
  CpAlsOptions pm = opts;
  pm.sweep_scheme = SweepScheme::PerMode;
  CpAlsOptions dt = opts;
  dt.sweep_scheme = SweepScheme::DimTree;
  const CpAlsResult pm_r = cp_als(X, pm);
  const CpAlsResult dt_r = cp_als(X, dt);
  ASSERT_EQ(pm_r.iterations, dt_r.iterations);
  EXPECT_NEAR(pm_r.final_fit, dt_r.final_fit, 1e-9);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    EXPECT_LT(pm_r.model.factors[n].max_abs_diff(dt_r.model.factors[n]), 1e-7)
        << "factor " << n;
  }
  for (index_t c = 0; c < opts.rank; ++c) {
    EXPECT_NEAR(pm_r.model.lambda[static_cast<std::size_t>(c)],
                dt_r.model.lambda[static_cast<std::size_t>(c)], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SweepSchemeShapes,
    ::testing::Values(std::vector<index_t>{5, 6, 7},           // 3-way
                      std::vector<index_t>{4, 5, 3, 6},        // 4-way
                      std::vector<index_t>{3, 4, 2, 3, 4},     // 5-way
                      std::vector<index_t>{2, 3, 2, 2, 3, 2},  // 6-way
                      std::vector<index_t>{4, 1, 5, 3},        // extent-1 mode
                      std::vector<index_t>{2, 3, 2, 2}));      // rank > extents

void expect_same_result(const CpAlsResult& a, const CpAlsResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.final_fit, b.final_fit);
  ASSERT_EQ(a.model.factors.size(), b.model.factors.size());
  for (std::size_t n = 0; n < a.model.factors.size(); ++n) {
    EXPECT_EQ(a.model.factors[n].max_abs_diff(b.model.factors[n]), 0.0)
        << "factor " << n;
  }
}

TEST(SweepSchemeAuto, AutoDriverMatchesExplicitDimTreeOnFourWay) {
  Rng rng(59);
  Tensor X = Tensor::random_uniform({4, 5, 3, 4}, rng);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 3;
  CpAlsOptions dt = opts;
  dt.sweep_scheme = SweepScheme::DimTree;
  expect_same_result(cp_als(X, opts), cp_als(X, dt));
}

TEST(SweepScheme, NnhalsRunsDimTree) {
  Rng rng(53);
  Tensor X = Tensor::random_uniform({5, 4, 3, 4}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 4;
  opts.tol = 0.0;
  CpAlsOptions dt = opts;
  dt.sweep_scheme = SweepScheme::DimTree;
  const CpAlsResult pm_r = cp_nnhals(X, opts);
  const CpAlsResult dt_r = cp_nnhals(X, dt);
  ASSERT_EQ(pm_r.iterations, dt_r.iterations);
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_LT(pm_r.model.factors[n].max_abs_diff(dt_r.model.factors[n]), 1e-7);
  }
}

TEST(SweepScheme, SharedContextReusesOneArena) {
  // Two factorizations of the same shape through one context: results
  // match the private-context runs exactly, and the arena is grown only by
  // plan construction.
  Rng rng(54);
  Tensor X = Tensor::random_uniform({4, 5, 3, 6}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 3;
  opts.sweep_scheme = SweepScheme::DimTree;
  opts.threads = 2;
  const CpAlsResult solo_a = cp_als(X, opts);
  CpAlsOptions opts2 = opts;
  opts2.seed = 1234;
  const CpAlsResult solo_b = cp_als(X, opts2);

  ExecContext ctx(2);
  CpAlsOptions shared = opts;
  shared.exec = &ctx;
  CpAlsOptions shared2 = opts2;
  shared2.exec = &ctx;
  expect_same_result(solo_a, cp_als(X, shared));
  expect_same_result(solo_b, cp_als(X, shared2));
  EXPECT_EQ(ctx.arena().in_use(), 0u);
}

TEST(SweepScheme, DimTreeFillsSweepTimings) {
  Rng rng(55);
  Tensor X = Tensor::random_uniform({6, 5, 4, 3}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 3;
  opts.tol = 0.0;
  opts.sweep_scheme = SweepScheme::DimTree;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_GT(r.sweep_timings.mttkrp_seconds, 0.0);
  ASSERT_FALSE(r.sweep_timings.nodes.empty());
  int leaves = 0;
  for (const SweepNodeTimings& tm : r.sweep_timings.nodes) {
    EXPECT_EQ(tm.evals, r.iterations);  // every node contracts once a sweep
    if (tm.leaf) ++leaves;
  }
  EXPECT_EQ(leaves, 4);
  // DimTree has no per-mode MttkrpPlans.
  EXPECT_EQ(r.mttkrp_timings.total, 0.0);
  // Per-sweep stats come from the plan, not ad-hoc stopwatches.
  ASSERT_EQ(static_cast<int>(r.iters.size()), r.iterations);
  EXPECT_GT(r.iters.front().mttkrp_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// The zero-allocation contract: after construction, a full dimension-tree
// sweep draws only from the already-reserved arena — including the BLAS
// packing workspaces of every node contraction.
// ---------------------------------------------------------------------------

TEST(SweepPlanDimTree, SweepIsAllocationFreeAfterConstruction) {
  // One plan with one-sided leaf recoveries only (2 | 2 groups), one with
  // two-sided middle leaves (3 | 2 groups), sharing one context.
  Rng rng(56);
  const std::vector<index_t> dims4{7, 6, 5, 4};
  const std::vector<index_t> dims5{4, 3, 5, 2, 3};
  Tensor X4 = Tensor::random_uniform(dims4, rng);
  Tensor X5 = Tensor::random_uniform(dims5, rng);
  ExecContext ctx(3);
  CpAlsSweepPlan plan4(ctx, X4.dims(), 5, SweepScheme::DimTree);
  CpAlsSweepPlan plan5(ctx, X5.dims(), 5, SweepScheme::DimTree);

  const std::size_t grows = ctx.arena().grow_count();
  const std::size_t capacity = ctx.arena().capacity();
  const std::size_t blas_allocs = blas::gemm_internal_allocs();
  EXPECT_LE(plan4.workspace_bytes(), capacity);
  EXPECT_LE(plan5.workspace_bytes(), capacity);

  Matrix M;
  for (int round = 0; round < 3; ++round) {
    for (auto [p, X] : {std::pair{&plan4, &X4}, std::pair{&plan5, &X5}}) {
      const std::vector<index_t> dims(X->dims().begin(), X->dims().end());
      std::vector<Matrix> fs = random_factors(dims, 5, rng);
      p->begin_sweep(*X);
      for (index_t n = 0; n < X->order(); ++n) {
        p->mode_mttkrp(n, *X, fs, M);
        // In-place factor updates between modes, as in a real sweep.
        fs[static_cast<std::size_t>(n)] =
            testing::random_factors(dims, 5, rng)[static_cast<std::size_t>(n)];
      }
    }
  }
  EXPECT_EQ(ctx.arena().grow_count(), grows);
  EXPECT_EQ(ctx.arena().capacity(), capacity);
  EXPECT_EQ(ctx.arena().in_use(), 0u);
  EXPECT_LE(ctx.arena().high_water(), capacity);
  EXPECT_EQ(blas::gemm_internal_allocs(), blas_allocs)
      << "a tree contraction fell back to the internal packing arena";
}

// ---------------------------------------------------------------------------
// Sweep protocol and validation.
// ---------------------------------------------------------------------------

TEST(SweepPlan, EnforcesInOrderProtocol) {
  Rng rng(57);
  const std::vector<index_t> dims{4, 3, 5};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 2, rng);
  ExecContext ctx(1);
  CpAlsSweepPlan plan(ctx, X.dims(), 2, SweepScheme::DimTree);
  Matrix M;
  // No begin_sweep yet.
  EXPECT_THROW(plan.mode_mttkrp(0, X, fs, M), DimensionError);
  plan.begin_sweep(X);
  // Out of order.
  EXPECT_THROW(plan.mode_mttkrp(1, X, fs, M), DimensionError);
  plan.mode_mttkrp(0, X, fs, M);
  // Repeat of a served mode.
  EXPECT_THROW(plan.mode_mttkrp(0, X, fs, M), DimensionError);
  plan.mode_mttkrp(1, X, fs, M);
  plan.mode_mttkrp(2, X, fs, M);
  // Sweep complete; the next sweep needs a fresh begin_sweep.
  EXPECT_THROW(plan.mode_mttkrp(0, X, fs, M), DimensionError);
  plan.begin_sweep(X);
  plan.mode_mttkrp(0, X, fs, M);
  expect_matrix_near(M, mttkrp(X, fs, 0, MttkrpMethod::Reference), 1e-10);
}

TEST(SweepPlan, ValidationErrors) {
  ExecContext ctx(1);
  const std::vector<index_t> dims{4, 5, 6};
  EXPECT_THROW(CpAlsSweepPlan(ctx, dims, 0, SweepScheme::DimTree),
               DimensionError);
  EXPECT_THROW(
      CpAlsSweepPlan(ctx, {std::vector<index_t>{7}}, 3, SweepScheme::DimTree),
      DimensionError);

  Rng rng(58);
  CpAlsSweepPlan plan(ctx, dims, 3, SweepScheme::DimTree);
  Tensor Y = Tensor::random_uniform({4, 5, 7}, rng);
  EXPECT_THROW(plan.begin_sweep(Y), DimensionError);
  Tensor X = Tensor::random_uniform(dims, rng);
  plan.begin_sweep(X);
  Matrix M;
  std::vector<Matrix> bad = random_factors(dims, 4, rng);  // wrong rank
  EXPECT_THROW(plan.mode_mttkrp(0, X, bad, M), DimensionError);
}

TEST(SweepBalancedSplit, BalancesGroups) {
  const auto root_split = [](std::vector<index_t> dims) {
    return sweep_balanced_split(dims, 0, static_cast<index_t>(dims.size()));
  };
  // 4 x 4 x 4 x 4: the balanced split is s = 2 (16 | 16).
  EXPECT_EQ(root_split({4, 4, 4, 4}), 2);
  // 100 x 2 x 2: s = 1 gives max(100, 4) = 100; s = 2 gives max(200, 2).
  EXPECT_EQ(root_split({100, 2, 2}), 1);
  // 2 x 2 x 100: s = 2 gives max(4, 100) = 100; s = 1 gives max(2, 200).
  EXPECT_EQ(root_split({2, 2, 100}), 2);
  // Two-way tensors have only s = 1.
  EXPECT_EQ(root_split({7, 9}), 1);
  // Sub-interval splits.
  const std::vector<index_t> dims{2, 2, 100, 3};
  EXPECT_EQ(sweep_balanced_split(dims, 0, 2), 1);
  EXPECT_EQ(sweep_balanced_split(dims, 1, 4), 3);
}

TEST(SweepSchemeParse, RoundTripsAndAliases) {
  for (SweepScheme s :
       {SweepScheme::Auto, SweepScheme::PerMode, SweepScheme::DimTree,
        SweepScheme::SparseCsf, SweepScheme::SparseCoo}) {
    const auto parsed = parse_sweep_scheme(to_string(s));
    ASSERT_TRUE(parsed.has_value()) << to_string(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_EQ(parse_sweep_scheme("per-mode"), SweepScheme::PerMode);
  EXPECT_EQ(parse_sweep_scheme("dim-tree"), SweepScheme::DimTree);
  EXPECT_EQ(parse_sweep_scheme("csf"), SweepScheme::SparseCsf);
  EXPECT_EQ(parse_sweep_scheme("sparse-csf"), SweepScheme::SparseCsf);
  EXPECT_EQ(parse_sweep_scheme("coo"), SweepScheme::SparseCoo);
  EXPECT_EQ(parse_sweep_scheme("sparse-coo"), SweepScheme::SparseCoo);
  EXPECT_FALSE(parse_sweep_scheme("").has_value());
  EXPECT_FALSE(parse_sweep_scheme("tree").has_value());
}

}  // namespace
}  // namespace dmtk
