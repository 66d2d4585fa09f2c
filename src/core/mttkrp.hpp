#pragma once
/// \file mttkrp.hpp
/// \brief The matricized-tensor times Khatri-Rao product:
///   M = X(n) * (U_{N-1} (.) ... (.) U_{n+1} (.) U_{n-1} (.) ... (.) U_0),
/// the computational bottleneck of CP decompositions (Section 2.3).
///
/// Six implementations are provided:
///  - Reference: element-wise loops, O(I*N*C). Testing oracle only.
///  - Reorder:   explicit matricization (tensor permute) + explicit
///               column-wise KRP + one GEMM — the straightforward approach
///               of Bader & Kolda that the paper's algorithms aim to beat;
///               also the kernel inside the Tensor-Toolbox-style baseline.
///  - OneStepSeq: Algorithm 2 — full KRP, then a block inner product over
///               the natural row-major blocks of X(n); no reordering.
///  - OneStep:   Algorithm 3 — parallel 1-step; external modes split the
///               columns of X(n) across threads (each thread forms its own
///               KRP rows), internal modes split the I_Rn natural blocks
///               (left KRP precomputed, right KRP formed row-by-row);
///               thread-private outputs + parallel reduction.
///  - TwoStep:   Algorithm 4 (Phan et al.) — one large GEMM (partial MTTKRP
///               with the left or right partial KRP, whichever minimizes
///               second-step work) followed by a multi-TTV. Parallelism
///               lives inside the BLAS calls.
///  - Auto:      the paper's CP-ALS policy — 1-step for external modes
///               (where 2-step degenerates to it anyway) and 2-step for
///               internal modes.
///  - Acc64:     mixed precision for fp32 storage (MttkrpPlanT<float>
///               only): the full transposed fp32 KRP, then every output
///               entry summed in an fp64 accumulator over the natural
///               blocks of X(n) and rounded once on the store — the dense
///               analogue of the sparse CSF kernel's fp64 sums. Slower
///               than the blocked fp32 methods (its inner loop skips the
///               micro-kernels); it buys the fp64 fit floor.
///
/// The kernels themselves live behind the plan API of exec/mttkrp_plan.hpp
/// (dispatch, thread partitions, and workspace are precomputed once and
/// reused across ALS sweeps). The free functions below are thin ONE-SHOT
/// wrappers that build a transient plan per call — fine for tests and
/// occasional calls; hot loops should hold an ExecContext and an
/// MttkrpPlan per mode instead, and read its phase breakdown from
/// plan.timings().

#include <optional>
#include <span>
#include <string_view>
#include <type_traits>

#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "util/common.hpp"

namespace dmtk {

/// The integer values are part of the checkpoint options hash
/// (detail::cp_als_options_hash), so new methods are appended.
enum class MttkrpMethod {
  Reference,
  Reorder,
  OneStepSeq,
  OneStep,
  TwoStep,
  Auto,
  Acc64,
};

/// Human-readable method name (for logs and benchmark tables).
std::string_view to_string(MttkrpMethod m);

/// Inverse of to_string: parse a method name ("reference", "reorder",
/// "1-step-seq", "1-step", "2-step", "auto", "acc64"). Returns nullopt for unknown
/// names — the single parser shared by the CLI and the benchmarks.
std::optional<MttkrpMethod> parse_mttkrp_method(std::string_view name);

/// Wall-clock breakdown of one MTTKRP call, mirroring the categories of
/// Figures 6 and 8. Phases that a method does not have stay zero. For
/// phases executed inside a parallel region the MAX across threads is
/// recorded (the quantity that determines the critical path).
struct MttkrpTimings {
  double krp = 0.0;      ///< full-KRP formation (1-step external; Alg 2)
  double krp_lr = 0.0;   ///< left/right partial KRP work (1-step internal,
                         ///< 2-step line 2-3, per-block K tiles)
  double gemm = 0.0;     ///< matrix-matrix multiply time
  double gemv = 0.0;     ///< multi-TTV matrix-vector time (2-step)
  double reduce = 0.0;   ///< parallel reduction of thread-private outputs
  double reorder = 0.0;  ///< explicit tensor permute (Reorder method only)
  double total = 0.0;    ///< whole-call wall time

  MttkrpTimings& operator+=(const MttkrpTimings& o);
};

/// Compute the mode-n MTTKRP of X against the factor matrices. `factors`
/// must hold one matrix per mode (factors[mode] is ignored but must have
/// conforming column count). M is resized/overwritten to I_n x C.
///
/// One-shot wrapper: builds a transient MttkrpPlan (allocating its
/// workspace) per call. Loops should build the plan once and execute() it.
/// The scalar type is deduced from X (the span parameter is a non-deduced
/// context so containers still convert implicitly).
template <typename T>
void mttkrp(const TensorT<T>& X,
            std::span<const MatrixT<std::type_identity_t<T>>> factors,
            index_t mode, MatrixT<T>& M,
            MttkrpMethod method = MttkrpMethod::Auto, int threads = 0);

/// Convenience overload returning the result.
template <typename T>
MatrixT<T> mttkrp(const TensorT<T>& X,
                  std::span<const MatrixT<std::type_identity_t<T>>> factors,
                  index_t mode, MttkrpMethod method = MttkrpMethod::Auto,
                  int threads = 0);

extern template void mttkrp<double>(const Tensor&, std::span<const Matrix>,
                                    index_t, Matrix&, MttkrpMethod, int);
extern template void mttkrp<float>(const TensorF&, std::span<const MatrixF>,
                                   index_t, MatrixF&, MttkrpMethod, int);
extern template Matrix mttkrp<double>(const Tensor&, std::span<const Matrix>,
                                      index_t, MttkrpMethod, int);
extern template MatrixF mttkrp<float>(const TensorF&, std::span<const MatrixF>,
                                      index_t, MttkrpMethod, int);

/// True when the 2-step algorithm is distinct from the 1-step one for this
/// mode (internal modes of tensors with N >= 3).
bool twostep_is_defined(index_t order, index_t mode);

/// The side the 2-step algorithm will use for a given shape: true = left
/// partial MTTKRP first (I_Ln > I_Rn), false = right first. Exposed for the
/// ablation benchmark of the side-selection heuristic.
template <typename T>
bool twostep_uses_left(const TensorT<T>& X, index_t mode) {
  return X.left_size(mode) > X.right_size(mode);
}

}  // namespace dmtk
