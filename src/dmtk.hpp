#pragma once
/// \file dmtk.hpp
/// \brief Umbrella header: the full public API of the Dense MTTKRP Toolkit.
///
/// Quick tour — plan-based execution (the primary API):
///   dmtk::ExecContext       thread count + partition policy + workspace
///                           arena; replaces bare `int threads` plumbing
///   dmtk::MttkrpPlan        FFTW-style reusable plan: dispatch, thread
///                           partitions, and workspace precomputed once per
///                           (shape, rank, mode, method); execute() then
///                           runs allocation-free across ALS sweeps and
///                           accumulates its own MttkrpTimings
///   dmtk::CpAlsSweepPlan    whole-sweep planner behind every CP-ALS
///                           driver: SweepScheme::PerMode (N independent
///                           MttkrpPlans) or SweepScheme::DimTree (two-
///                           group dimension tree sharing partial
///                           contractions across modes); per-node
///                           SweepTimings
///   dmtk::SparseMttkrpPlan  the sparse workload's plan: per-mode CSF
///                           trees (or the COO kernel) built once, arena-
///                           backed allocation-free execute(); drives
///                           SweepScheme::SparseCsf / SparseCoo so sparse
///                           CP-ALS shares the dense sweep loop
///   dmtk::CpAlsOptions::exec  point drivers at a shared ExecContext
///   dmtk::CpAlsOptions::sweep_scheme  pick the sweep scheme per driver
///
/// Decompositions and kernels:
///   dmtk::cp_als            CP decomposition via alternating least squares
///   dmtk::cp_nnhals         nonnegative CP (HALS)
///   dmtk::st_hosvd          Tucker via sequentially-truncated HOSVD
///   dmtk::mttkrp            one-shot wrapper over a transient MttkrpPlan
///                           (Algs. 2-4; use plans in loops)
///   dmtk::krp_transposed    parallel row-wise Khatri-Rao product (Alg. 1)
///   dmtk::ttv, dmtk::ttm    tensor-times-vector / -matrix
///
/// Data types and substrate:
///   dmtk::Tensor            dense N-way tensor, natural linearization
///   dmtk::Matrix            column-major dense matrix
///   (every numeric type/plan/driver above is templated on the scalar:
///    the un-suffixed names are the double instantiations, the F-suffixed
///    ones — TensorF, MatrixF, MttkrpPlanF, CpAlsOptionsF, cp_als on
///    TensorF — run the same pipeline in fp32 at ~half the bandwidth;
///    see README "Precision")
///   dmtk::sim::make_fmri_tensor   synthetic neuroimaging workload
///   dmtk::baseline::ttb_cp_als    Tensor-Toolbox-style comparator
///   dmtk::blas::*           the mini-BLAS substrate (gemm/gemv/syrk/level1)
///
/// Minimal plan-based usage:
///   ExecContext ctx(8);                        // 8 threads, shared arena
///   MttkrpPlan plan(ctx, X.dims(), rank, mode);
///   Matrix M(X.dim(mode), rank);
///   plan.execute(X, factors, M);               // reuse across sweeps
///
/// See README.md for the full quickstart and the migration note from the
/// legacy (method, threads, timings*) free-function signatures.

#include "baseline/ttb_cp_als.hpp"  // IWYU pragma: export
#include "blas/blas.hpp"            // IWYU pragma: export
#include "core/cp_als.hpp"          // IWYU pragma: export
#include "core/cp_nn.hpp"           // IWYU pragma: export
#include "core/cp_model.hpp"        // IWYU pragma: export
#include "core/krp.hpp"             // IWYU pragma: export
#include "core/matrix.hpp"          // IWYU pragma: export
#include "core/mttkrp.hpp"          // IWYU pragma: export
#include "core/multi_index.hpp"     // IWYU pragma: export
#include "core/reorder.hpp"         // IWYU pragma: export
#include "core/tensor.hpp"          // IWYU pragma: export
#include "core/ttv.hpp"             // IWYU pragma: export
#include "core/tucker.hpp"          // IWYU pragma: export
#include "exec/exec_context.hpp"    // IWYU pragma: export
#include "exec/mttkrp_plan.hpp"     // IWYU pragma: export
#include "exec/sparse_mttkrp_plan.hpp"  // IWYU pragma: export
#include "exec/sweep_plan.hpp"      // IWYU pragma: export
#include "io/tensor_io.hpp"         // IWYU pragma: export
#include "linalg/cholesky.hpp"      // IWYU pragma: export
#include "linalg/jacobi_eig.hpp"    // IWYU pragma: export
#include "linalg/spd_solve.hpp"     // IWYU pragma: export
#include "sim/fmri.hpp"             // IWYU pragma: export
#include "sparse/csf.hpp"           // IWYU pragma: export
#include "sparse/sparse_tensor.hpp" // IWYU pragma: export
#include "tune/tuner.hpp"           // IWYU pragma: export
#include "tune/wisdom.hpp"          // IWYU pragma: export
#include "util/env.hpp"             // IWYU pragma: export
#include "util/rng.hpp"             // IWYU pragma: export
#include "util/stats.hpp"           // IWYU pragma: export
#include "util/stream.hpp"          // IWYU pragma: export
#include "util/timer.hpp"           // IWYU pragma: export
