#pragma once
/// \file sparse_mttkrp_plan.hpp
/// \brief Plan-based sparse MTTKRP: the sparse workload's entry into the
/// ExecContext/plan execution layer.
///
/// The COO module (sparse/sparse_tensor.hpp) was the one workload that
/// bypassed the plan layer entirely — per-call heap-allocated partials, no
/// arena, no sweep loop. A SparseMttkrpPlan does for sparse tensors what
/// MttkrpPlan does for dense ones: everything value-independent happens at
/// construction, execute() is allocation-free from the context's arena.
///
/// The kernel is CSF: one mode-rooted CSF tree per mode (sparse/csf.hpp),
/// built at construction — sort, additive duplicate merge, and fiber
/// compression are plan-time costs amortized over the ALS sweeps. With the
/// target mode at the root each root node owns one output row, so the
/// precomputed per-thread root tiles write disjoint rows of M and no
/// private outputs are needed; per-thread scratch is just order x rank fp64
/// accumulators from the arena. The free sparse::mttkrp (the per-nonzero
/// COO kernel) stays outside the plan layer as the test oracle.
///
/// The plan is templated on the storage scalar like the dense MttkrpPlanT;
/// `SparseMttkrpPlan` / `SparseMttkrpPlanF` alias the double and float
/// instantiations. The accumulators stay in fp64 regardless of T — the
/// fp32 plan halves the value/factor bytes streamed per nonzero (the
/// bandwidth-bound part) while the per-row sums stay at the fp64 floor,
/// rounding once on the output store.
///
/// The CSF trees snapshot X's coordinates and values at construction, so
/// the plan never reads X afterwards: X may be mutated or destroyed once
/// the plan is built, and execute() keeps computing with the values X had
/// then. (Factor matrices, as everywhere in the plan layer, are read at
/// call time.)

#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "exec/exec_context.hpp"
#include "sparse/csf.hpp"
#include "sparse/sparse_tensor.hpp"

namespace dmtk {

template <typename T>
class SparseMttkrpPlanT {
 public:
  /// Plan all N per-mode MTTKRPs of X at rank `rank`. The context
  /// reference is retained and must outlive the plan; X is not.
  SparseMttkrpPlanT(const ExecContext& ctx, const sparse::SparseTensorT<T>& X,
                    index_t rank);

  /// Run the planned mode-`mode` MTTKRP of the snapshotted tensor against
  /// `factors` into M (resized on shape mismatch; allocation-free when the
  /// caller keeps M across calls, the ALS pattern).
  void execute(index_t mode, std::span<const MatrixT<T>> factors,
               MatrixT<T>& M);

  [[nodiscard]] std::span<const index_t> dims() const { return dims_; }
  [[nodiscard]] index_t rank() const { return rank_; }
  /// Nonzeros of the planned tensor (before duplicate merging).
  [[nodiscard]] index_t nnz() const { return nnz_; }
  [[nodiscard]] int threads() const { return nt_; }
  /// Arena bytes one execute() draws (already reserved in the context).
  /// The workspace holds fp64 accumulators for either scalar.
  [[nodiscard]] std::size_t workspace_bytes() const {
    return ws_doubles_ * sizeof(double);
  }
  /// The mode-rooted CSF built for `mode` (tests and structure
  /// inspection).
  [[nodiscard]] const sparse::CsfTensorT<T>& csf(index_t mode) const;

  /// Wall seconds accumulated over every execute() since construction.
  [[nodiscard]] double total_seconds() const { return total_seconds_; }
  void reset_timings() { total_seconds_ = 0.0; }

 private:
  const ExecContext* ctx_;
  std::vector<index_t> dims_;
  index_t rank_ = 0;
  index_t nnz_ = 0;
  int nt_ = 1;

  // Per-mode trees and the per-thread root tiles.
  std::vector<sparse::CsfTensorT<T>> csf_;
  std::vector<std::vector<Range>> tiles_;  // [mode][thread]
  std::size_t stride_scratch_ = 0;         // per-thread CSF scratch
  std::size_t ws_doubles_ = 0;  // fp64 accumulator slots, either scalar
  double total_seconds_ = 0.0;
};

extern template class SparseMttkrpPlanT<double>;
extern template class SparseMttkrpPlanT<float>;

/// The default (double) sparse plan and its fp32 sibling.
using SparseMttkrpPlan = SparseMttkrpPlanT<double>;
using SparseMttkrpPlanF = SparseMttkrpPlanT<float>;

}  // namespace dmtk
