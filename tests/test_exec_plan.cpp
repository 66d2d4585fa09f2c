// Coverage for the plan-based execution API (exec/): ExecContext +
// WorkspaceArena semantics, MttkrpPlan vs the one-shot wrapper (bitwise),
// plan reuse across repeated executes, the zero-allocation contract after
// plan construction, and driver equivalence between the `exec` and
// `threads` configuration paths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/ttb_cp_als.hpp"
#include "blas/gemm_workspace.hpp"
#include "core/cp_als.hpp"
#include "core/cp_nn.hpp"
#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "test_helpers.hpp"

namespace dmtk {
namespace {

using testing::random_factors;

const std::vector<MttkrpMethod> kAllMethods = {
    MttkrpMethod::Reference, MttkrpMethod::Reorder, MttkrpMethod::OneStepSeq,
    MttkrpMethod::OneStep,   MttkrpMethod::TwoStep, MttkrpMethod::Auto,
};

void expect_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// WorkspaceArena
// ---------------------------------------------------------------------------

TEST(WorkspaceArena, ReserveGrowsOnceAndTracksGrowCount) {
  WorkspaceArena arena;
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.grow_count(), 0u);
  arena.reserve<double>(100);
  EXPECT_GE(arena.capacity(), 100u * sizeof(double));
  EXPECT_EQ(arena.grow_count(), 1u);
  arena.reserve<double>(50);  // never shrinks, no realloc
  EXPECT_EQ(arena.grow_count(), 1u);
  arena.reserve_bytes(3200);
  EXPECT_EQ(arena.grow_count(), 2u);
}

TEST(WorkspaceArena, FramesBumpAndRelease) {
  WorkspaceArena arena;
  arena.reserve_bytes(WorkspaceArena::aligned_count<double>(10) *
                      sizeof(double) * 3);
  {
    WorkspaceArena::Frame f(arena);
    double* a = f.alloc<double>(10);
    double* b = f.alloc<double>(10);
    ASSERT_NE(a, nullptr);
    // Blocks are cache-line aligned and disjoint.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % kDefaultAlignment, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_GT(arena.in_use(), 0u);
  }
  EXPECT_EQ(arena.in_use(), 0u);  // frame destruction releases in bulk
  EXPECT_GT(arena.high_water(), 0u);
}

TEST(WorkspaceArena, TypedCarveOutsShareOneByteBudget) {
  // The same arena serves float and double carve-outs: a float block of
  // the same element count takes half the bytes, and both come back
  // line-aligned — the typed replacement for the old doubles-measured
  // blocks that float users had to reinterpret.
  WorkspaceArena arena;
  arena.reserve_bytes(4096);
  WorkspaceArena::Frame f(arena);
  float* a = f.alloc<float>(16);
  double* b = f.alloc<double>(16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % kDefaultAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % kDefaultAlignment, 0u);
  // 16 floats round up to one cache line (64 B); 16 doubles to two.
  EXPECT_EQ(arena.in_use(), 64u + 128u);
  a[0] = 1.0f;  // both views are writable storage
  b[0] = 2.0;
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 2.0);
}

TEST(WorkspaceArena, FrameAllocBeyondReserveThrows) {
  WorkspaceArena arena;
  arena.reserve<double>(WorkspaceArena::aligned_count<double>(8));
  WorkspaceArena::Frame f(arena);
  (void)f.alloc<double>(8);
  EXPECT_THROW((void)f.alloc<double>(1024), DimensionError);
}

TEST(ExecContext, ResolvesAndPinsThreads) {
  ExecContext one(1);
  EXPECT_EQ(one.threads(), 1);
  ExecContext four(4);
  EXPECT_EQ(four.threads(), 4);
  ExecContext dflt;  // <=0 resolves to the library default, which is >= 1
  EXPECT_GE(dflt.threads(), 1);
  // Partition policy matches block_range.
  const Range r0 = four.partition(10, 0);
  EXPECT_EQ(r0.begin, 0);
  EXPECT_EQ(r0.size(), four.max_block(10));
}

// ---------------------------------------------------------------------------
// Plan vs one-shot: bitwise equivalence for every method.
// ---------------------------------------------------------------------------

struct PlanCase {
  std::vector<index_t> dims;
  index_t rank;
  int threads;
};

class PlanVsOneShot : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanVsOneShot, BitwiseEqualAcrossMethodsAndModes) {
  const PlanCase& pc = GetParam();
  Rng rng(123 + static_cast<std::uint64_t>(pc.dims.size()));
  Tensor X = Tensor::random_uniform(pc.dims, rng);
  const std::vector<Matrix> fs = random_factors(pc.dims, pc.rank, rng);
  ExecContext ctx(pc.threads);
  const index_t N = X.order();
  for (index_t mode = 0; mode < N; ++mode) {
    for (MttkrpMethod m : kAllMethods) {
      MttkrpPlan plan(ctx, X.dims(), pc.rank, mode, m);
      Matrix got(X.dim(mode), pc.rank);
      plan.execute(X, fs, got);
      const Matrix expect = mttkrp(X, fs, mode, m, pc.threads);
      SCOPED_TRACE(std::string("method=") + std::string(to_string(m)) +
                   " mode=" + std::to_string(mode));
      expect_bitwise_equal(got, expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanVsOneShot,
    ::testing::Values(PlanCase{{5, 4, 6}, 3, 1},       // 3-way sequential
                      PlanCase{{5, 4, 6}, 3, 3},       // 3-way threaded
                      PlanCase{{3, 4, 2, 5}, 4, 2},    // 4-way
                      PlanCase{{3, 2, 4, 2, 3}, 5, 3}  // 5-way
                      ));

// ---------------------------------------------------------------------------
// Plan reuse: repeated execute() with changing values stays correct.
// ---------------------------------------------------------------------------

TEST(MttkrpPlan, ReuseAcrossRepeatedExecutes) {
  Rng rng(321);
  const std::vector<index_t> dims{6, 5, 4};
  Tensor X = Tensor::random_uniform(dims, rng);
  ExecContext ctx(2);
  for (MttkrpMethod m :
       {MttkrpMethod::OneStep, MttkrpMethod::TwoStep, MttkrpMethod::Auto}) {
    MttkrpPlan plan(ctx, X.dims(), 3, 1, m);
    Matrix M;
    for (int round = 0; round < 4; ++round) {
      // Fresh factor values every round: the plan must not cache values.
      const std::vector<Matrix> fs = random_factors(dims, 3, rng);
      plan.execute(X, fs, M);
      const Matrix expect = mttkrp(X, fs, 1, m, 2);
      expect_bitwise_equal(M, expect);
    }
  }
}

TEST(MttkrpPlan, SharedContextAcrossModesMatchesOneShot) {
  // The ALS pattern: one context, one plan per mode, arena shared.
  Rng rng(77);
  const std::vector<index_t> dims{4, 5, 3, 4};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 4, rng);
  ExecContext ctx(2);
  std::vector<MttkrpPlan> plans;
  for (index_t n = 0; n < X.order(); ++n) {
    plans.emplace_back(ctx, X.dims(), 4, n, MttkrpMethod::Auto);
  }
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (index_t n = 0; n < X.order(); ++n) {
      Matrix M;
      plans[static_cast<std::size_t>(n)].execute(X, fs, M);
      expect_bitwise_equal(M, mttkrp(X, fs, n, MttkrpMethod::Auto, 2));
    }
  }
}

// ---------------------------------------------------------------------------
// ExecContext edge cases.
// ---------------------------------------------------------------------------

TEST(MttkrpPlan, SingleThreadContext) {
  Rng rng(11);
  const std::vector<index_t> dims{4, 3, 5};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 2, rng);
  ExecContext ctx(1);
  for (index_t mode = 0; mode < 3; ++mode) {
    MttkrpPlan plan(ctx, X.dims(), 2, mode, MttkrpMethod::OneStep);
    Matrix M;
    plan.execute(X, fs, M);
    const Matrix ref = mttkrp(X, fs, mode, MttkrpMethod::Reference);
    testing::expect_matrix_near(M, ref, 1e-12);
  }
}

TEST(MttkrpPlan, MoreThreadsThanBlocks) {
  // threads exceed both the internal-mode block count (I_R1 = 2) and the
  // external-mode fiber count; the extra threads get empty ranges and the
  // result must still be exact.
  Rng rng(12);
  const std::vector<index_t> dims{4, 5, 2};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 3, rng);
  ExecContext ctx(16);
  for (index_t mode = 0; mode < 3; ++mode) {
    for (MttkrpMethod m : {MttkrpMethod::OneStep, MttkrpMethod::TwoStep}) {
      MttkrpPlan plan(ctx, X.dims(), 3, mode, m);
      Matrix M;
      plan.execute(X, fs, M);
      const Matrix ref = mttkrp(X, fs, mode, MttkrpMethod::Reference);
      SCOPED_TRACE(std::string("method=") + std::string(to_string(m)) +
                   " mode=" + std::to_string(mode));
      testing::expect_matrix_near(M, ref, 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// The zero-allocation contract: after plan construction, execute() draws
// only from the already-reserved arena.
// ---------------------------------------------------------------------------

TEST(MttkrpPlan, ExecuteIsAllocationFreeAfterConstruction) {
  Rng rng(13);
  const std::vector<index_t> dims{7, 6, 5, 4};
  Tensor X = Tensor::random_uniform(dims, rng);
  ExecContext ctx(3);

  // Build one plan per (mode, method) — all reserves happen HERE.
  std::vector<MttkrpPlan> plans;
  for (index_t mode = 0; mode < X.order(); ++mode) {
    for (MttkrpMethod m : kAllMethods) {
      plans.emplace_back(ctx, X.dims(), 3, mode, m);
    }
  }
  const std::size_t grows_after_construction = ctx.arena().grow_count();
  const std::size_t capacity_after_construction = ctx.arena().capacity();
  const std::size_t blas_allocs_after_construction =
      blas::gemm_internal_allocs();
  for (const MttkrpPlan& p : plans) {
    EXPECT_LE(p.workspace_bytes(), capacity_after_construction);
  }

  Matrix M;  // sized by the first execute of each shape
  for (int round = 0; round < 3; ++round) {
    const std::vector<Matrix> fs = random_factors(dims, 3, rng);
    for (MttkrpPlan& p : plans) {
      p.execute(X, fs, M);
    }
  }
  // No arena growth, no new reservations: execute() never touched the heap
  // through the workspace machinery.
  EXPECT_EQ(ctx.arena().grow_count(), grows_after_construction);
  EXPECT_EQ(ctx.arena().capacity(), capacity_after_construction);
  EXPECT_EQ(ctx.arena().in_use(), 0u);  // every frame released
  EXPECT_LE(ctx.arena().high_water(), capacity_after_construction);
  // ...and the BLAS layer never fell back to its internal packing arena:
  // every gemm/gemm_batched inside execute() ran on the plan's carved
  // GemmWorkspace.
  EXPECT_EQ(blas::gemm_internal_allocs(), blas_allocs_after_construction);
}

TEST(MttkrpPlan, GemmDominatedMethodsAreHeapFreeInsideBlas) {
  // GEMM-heavy shapes: large enough that the blocked kernel crosses its
  // packing-panel boundaries (k > KC for mode 0's 2-step GEMM), so a
  // workspace regression would show up as internal fallback allocation.
  Rng rng(131);
  const std::vector<index_t> dims{40, 30, 24};
  Tensor X = Tensor::random_uniform(dims, rng);
  const index_t rank = 16;
  ExecContext ctx(2);

  std::vector<MttkrpPlan> plans;
  for (index_t mode = 0; mode < X.order(); ++mode) {
    // Reorder: one In x rank x cosize GEMM; TwoStep: the paper's
    // GEMM-dominated internal path; OneStep internal: the batched sweep.
    for (MttkrpMethod m : {MttkrpMethod::Reorder, MttkrpMethod::TwoStep,
                           MttkrpMethod::OneStep}) {
      plans.emplace_back(ctx, X.dims(), rank, mode, m);
    }
  }
  const std::size_t grows = ctx.arena().grow_count();
  const std::size_t blas_allocs = blas::gemm_internal_allocs();

  Matrix M;
  const std::vector<Matrix> fs = random_factors(dims, rank, rng);
  const Matrix ref = mttkrp(X, fs, 0, MttkrpMethod::Reference);
  for (int round = 0; round < 2; ++round) {
    for (MttkrpPlan& p : plans) {
      p.execute(X, fs, M);
      if (p.mode() == 0) testing::expect_matrix_near(M, ref, 1e-9);
    }
  }
  EXPECT_EQ(ctx.arena().grow_count(), grows);
  EXPECT_EQ(blas::gemm_internal_allocs(), blas_allocs)
      << "a plan GEMM/SYRK call fell back to the internal packing arena";
}

// ---------------------------------------------------------------------------
// Plan metadata.
// ---------------------------------------------------------------------------

TEST(MttkrpPlan, AutoResolvesToPaperPolicy) {
  ExecContext ctx(1);
  const std::vector<index_t> dims{4, 5, 6};
  for (index_t mode = 0; mode < 3; ++mode) {
    MttkrpPlan plan(ctx, dims, 2, mode, MttkrpMethod::Auto);
    EXPECT_EQ(plan.requested_method(), MttkrpMethod::Auto);
    EXPECT_EQ(plan.resolved_method(), twostep_is_defined(3, mode)
                                          ? MttkrpMethod::TwoStep
                                          : MttkrpMethod::OneStep);
  }
}

TEST(MttkrpPlan, TwoStepSideMatchesHeuristicAndCanBeForced) {
  ExecContext ctx(1);
  const std::vector<index_t> skew_left{20, 3, 2};   // I_L = 20 > I_R = 2
  const std::vector<index_t> skew_right{2, 3, 20};  // I_L = 2 < I_R = 20
  EXPECT_TRUE(
      MttkrpPlan(ctx, skew_left, 2, 1, MttkrpMethod::TwoStep).uses_left());
  EXPECT_FALSE(
      MttkrpPlan(ctx, skew_right, 2, 1, MttkrpMethod::TwoStep).uses_left());

  // Forced sides bypass the heuristic and both stay exact.
  Rng rng(14);
  Tensor X = Tensor::random_uniform(skew_left, rng);
  const std::vector<Matrix> fs = random_factors(skew_left, 3, rng);
  const Matrix ref = mttkrp(X, fs, 1, MttkrpMethod::Reference);
  for (TwoStepSide side : {TwoStepSide::Left, TwoStepSide::Right}) {
    MttkrpPlan plan(ctx, skew_left, 3, 1, MttkrpMethod::TwoStep, side);
    EXPECT_EQ(plan.uses_left(), side == TwoStepSide::Left);
    Matrix M;
    plan.execute(X, fs, M);
    testing::expect_matrix_near(M, ref, 1e-12);
  }
}

TEST(MttkrpPlan, TimingsAccumulateAndReset) {
  Rng rng(15);
  const std::vector<index_t> dims{8, 9, 10};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 4, rng);
  ExecContext ctx(2);
  MttkrpPlan plan(ctx, dims, 4, 1, MttkrpMethod::TwoStep);
  Matrix M;
  plan.execute(X, fs, M);
  const double total1 = plan.timings().total;
  EXPECT_GT(total1, 0.0);
  plan.execute(X, fs, M);
  EXPECT_GT(plan.timings().total, total1);
  plan.reset_timings();
  EXPECT_EQ(plan.timings().total, 0.0);
}

TEST(MttkrpPlan, ValidationErrors) {
  ExecContext ctx(1);
  const std::vector<index_t> dims{4, 5, 6};
  EXPECT_THROW(MttkrpPlan(ctx, dims, 3, -1), DimensionError);
  EXPECT_THROW(MttkrpPlan(ctx, dims, 3, 3), DimensionError);
  EXPECT_THROW(MttkrpPlan(ctx, dims, 0, 0), DimensionError);
  EXPECT_THROW(MttkrpPlan(ctx, {std::vector<index_t>{7}}, 3, 0),
               DimensionError);

  Rng rng(16);
  MttkrpPlan plan(ctx, dims, 3, 0);
  Matrix M;
  // Tensor shape differing from the planned one.
  Tensor Y = Tensor::random_uniform({4, 5, 7}, rng);
  std::vector<Matrix> fs = random_factors(Y.dims(), 3, rng);
  EXPECT_THROW(plan.execute(Y, fs, M), DimensionError);
  // Conforming tensor, wrong-rank factors.
  Tensor X = Tensor::random_uniform(dims, rng);
  std::vector<Matrix> bad = random_factors(dims, 4, rng);
  EXPECT_THROW(plan.execute(X, bad, M), DimensionError);
}

// ---------------------------------------------------------------------------
// parse_mttkrp_method: inverse of to_string.
// ---------------------------------------------------------------------------

TEST(ParseMttkrpMethod, RoundTripsEveryMethod) {
  for (MttkrpMethod m : kAllMethods) {
    const auto parsed = parse_mttkrp_method(to_string(m));
    ASSERT_TRUE(parsed.has_value()) << to_string(m);
    EXPECT_EQ(*parsed, m);
  }
}

TEST(ParseMttkrpMethod, RejectsUnknownNames) {
  EXPECT_FALSE(parse_mttkrp_method("").has_value());
  EXPECT_FALSE(parse_mttkrp_method("3-step").has_value());
  EXPECT_FALSE(parse_mttkrp_method("AUTO").has_value());
}

TEST(ParseMttkrpMethod, AcceptsAliases) {
  EXPECT_EQ(parse_mttkrp_method("onestep"), MttkrpMethod::OneStep);
  EXPECT_EQ(parse_mttkrp_method("twostep"), MttkrpMethod::TwoStep);
}

// ---------------------------------------------------------------------------
// Driver equivalence: the exec-context path must reproduce the
// threads-int path exactly (same plans, same arithmetic).
// ---------------------------------------------------------------------------

void expect_same_result(const CpAlsResult& a, const CpAlsResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.final_fit, b.final_fit);
  ASSERT_EQ(a.model.factors.size(), b.model.factors.size());
  for (std::size_t n = 0; n < a.model.factors.size(); ++n) {
    expect_bitwise_equal(a.model.factors[n], b.model.factors[n]);
  }
  ASSERT_EQ(a.model.lambda.size(), b.model.lambda.size());
  for (std::size_t c = 0; c < a.model.lambda.size(); ++c) {
    EXPECT_EQ(a.model.lambda[c], b.model.lambda[c]);
  }
}

TEST(DriverExecContext, CpAlsMatchesThreadsPath) {
  Rng rng(17);
  Tensor X = Tensor::random_uniform({6, 5, 4}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 5;
  opts.threads = 2;
  const CpAlsResult via_threads = cp_als(X, opts);

  ExecContext ctx(2);
  CpAlsOptions opts_ctx = opts;
  opts_ctx.exec = &ctx;
  const CpAlsResult via_ctx = cp_als(X, opts_ctx);
  expect_same_result(via_threads, via_ctx);
  EXPECT_GT(via_ctx.mttkrp_timings.total, 0.0);
}

TEST(DriverExecContext, DimtreeAndHalsAcceptContext) {
  Rng rng(18);
  Tensor X = Tensor::random_uniform({5, 4, 6}, rng);
  ExecContext ctx(2);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 4;
  opts.threads = 2;

  CpAlsOptions opts_ctx = opts;
  opts_ctx.exec = &ctx;
  expect_same_result(cp_nnhals(X, opts), cp_nnhals(X, opts_ctx));
  CpAlsOptions dt = opts;
  dt.sweep_scheme = SweepScheme::DimTree;
  CpAlsOptions dt_ctx = opts_ctx;
  dt_ctx.sweep_scheme = SweepScheme::DimTree;
  expect_same_result(cp_als(X, dt), cp_als(X, dt_ctx));
}

TEST(DriverExecContext, BaselineUsesReorderPlans) {
  Rng rng(19);
  Tensor X = Tensor::random_uniform({5, 4, 3}, rng);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 4;
  opts.threads = 1;
  // ttb_cp_als == cp_als pinned to the Reorder kernel.
  CpAlsOptions reorder_opts = opts;
  reorder_opts.method = MttkrpMethod::Reorder;
  expect_same_result(baseline::ttb_cp_als(X, opts), cp_als(X, reorder_opts));
}

TEST(DriverExecContext, OverrideHookReceivesContext) {
  Rng rng(20);
  Tensor X = Tensor::random_uniform({4, 3, 5}, rng);
  ExecContext ctx(2);
  int calls = 0;
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 2;
  opts.compute_fit = false;
  opts.exec = &ctx;
  opts.mttkrp_override = [&calls](const Tensor& T,
                                  std::span<const Matrix> factors,
                                  index_t mode, Matrix& M,
                                  const ExecContext& c) {
    ++calls;
    EXPECT_EQ(c.threads(), 2);
    mttkrp(T, factors, mode, M, MttkrpMethod::Auto, c.threads());
  };
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_EQ(r.iterations, 2);
  EXPECT_EQ(calls, 2 * 3);  // sweeps * modes
  EXPECT_EQ(r.mttkrp_timings.total, 0.0);  // no built-in plans ran
}

}  // namespace
}  // namespace dmtk
