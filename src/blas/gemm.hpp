#pragma once
/// \file gemm.hpp
/// \brief Level-3 mini-BLAS: general matrix-matrix multiply. This is the
/// workhorse the paper obtains from MKL; here it is implemented from scratch
/// as a cache-blocked, packed, OpenMP-parallel kernel so that the MTTKRP
/// algorithms run in an environment without a vendor BLAS.
///
/// Design (BLIS-style):
///  - three-level blocking (NC x KC x MC) with packed A and B panels,
///  - an MR x NR register-tile micro-kernel, runtime-dispatched between
///    explicit AVX2/FMA kernels (4x8 and 8x8 doubles, 8x8 floats), AVX-512
///    kernels (8x16 and 16x16 doubles, 16x16 floats;
///    microkernel_avx512.hpp) and a portable scalar tile. AVX-512 is
///    opt-in: a capable CPU still defaults to AVX2 8x8 unless DMTK_SIMD or
///    a wisdom profile asks for it (cpu_features.hpp). DMTK_SIMD takes
///    scalar, avx2 (= avx2-8x8), avx2-4x8, avx2-8x8, avx512
///    (= avx512-16x16), avx512-8x16 or avx512-16x16 (parse_simd_level),
///  - collaborative internal parallelism: ONE thread team shares each
///    packed-B panel (packed cooperatively, then a barrier), and splits the
///    MC row blocks — or, when the output is too short for that, the NR
///    column strips — among the threads. Unlike the earlier scheme of
///    slicing C into independent sequential GEMMs, no operand panel is
///    ever packed twice.
///  - packing buffers come from a caller-provided GemmWorkspace (see
///    gemm_workspace.hpp) so plan-driven callers run heap-free; without one
///    a reused thread_local arena serves the call.
///
/// gemm_batched() runs many same-shape GEMMs in one parallel sweep — the
/// shape of the per-block multiplies in the 1-step internal-mode MTTKRP,
/// where each individual product is too small to parallelize internally
/// but the sweep as a whole is not.

#include "blas/gemm_workspace.hpp"
#include "blas/types.hpp"
#include "util/common.hpp"

namespace dmtk::blas {

/// C <- alpha * op(A) * op(B) + beta * C.
///
/// \param layout  storage order of all three matrices
/// \param ta,tb   transposition of A and B
/// \param m,n,k   op(A) is m x k, op(B) is k x n, C is m x n
/// \param lda,ldb,ldc leading dimensions in the given layout
/// \param threads OpenMP threads (<=0 selects the library default)
/// \param ws      packing workspace; pass gemm_workspace_elems<T>(m, n, k,
///                threads) elements (typed_workspace()) for a heap-free
///                call, or an invalid view to use the internal fallback
///                arena
template <typename T>
void gemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
          T alpha, const T* A, index_t lda, const T* B, index_t ldb, T beta,
          T* C, index_t ldc, int threads, const GemmWorkspace& ws);

/// Convenience overload: internal fallback workspace.
template <typename T>
void gemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
          T alpha, const T* A, index_t lda, const T* B, index_t ldb, T beta,
          T* C, index_t ldc, int threads = 0) {
  gemm(layout, ta, tb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc, threads,
       GemmWorkspace{});
}

/// Batched GEMM: for each item i in [0, batch),
///   C[i] <- alpha * op(A[i]) * op(B[i]) + (first write ? beta : 1) * C[i],
/// with every item sharing the same shape, transposes, leading dimensions,
/// and scalars. Items are swept in parallel; each item's product runs on
/// the sequential blocked kernel with a per-thread workspace slice.
///
/// Output aliasing contract: C pointers may REPEAT across consecutive
/// items. A maximal run of items with the same C pointer forms a group;
/// groups are the unit of parallel distribution, a group's items execute
/// in index order on one thread (or, when there are fewer groups than
/// threads, on one sub-team that splits the rows of C), and beta applies
/// to the group's first item only — later items accumulate. This is
/// exactly the shape of the 1-step internal-mode MTTKRP's per-block
/// multiplies, where blocks accumulate into per-thread partial outputs.
/// Non-consecutive duplicate C pointers are a data race; don't.
///
/// \param ws pass gemm_batched_workspace_elems<T>(m, n, k, threads)
///           elements (typed_workspace()) for a heap-free sweep.
template <typename T>
void gemm_batched(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, T alpha, const T* const* A, index_t lda,
                  const T* const* B, index_t ldb, T beta, T* const* C,
                  index_t ldc, index_t batch, int threads,
                  const GemmWorkspace& ws);

template <typename T>
void gemm_batched(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, T alpha, const T* const* A, index_t lda,
                  const T* const* B, index_t ldb, T beta, T* const* C,
                  index_t ldc, index_t batch, int threads = 0) {
  gemm_batched(layout, ta, tb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
               batch, threads, GemmWorkspace{});
}

extern template void gemm<float>(Layout, Trans, Trans, index_t, index_t,
                                 index_t, float, const float*, index_t,
                                 const float*, index_t, float, float*, index_t,
                                 int, const GemmWorkspace&);
extern template void gemm<double>(Layout, Trans, Trans, index_t, index_t,
                                  index_t, double, const double*, index_t,
                                  const double*, index_t, double, double*,
                                  index_t, int, const GemmWorkspace&);
extern template void gemm_batched<float>(Layout, Trans, Trans, index_t,
                                         index_t, index_t, float,
                                         const float* const*, index_t,
                                         const float* const*, index_t, float,
                                         float* const*, index_t, index_t, int,
                                         const GemmWorkspace&);
extern template void gemm_batched<double>(Layout, Trans, Trans, index_t,
                                          index_t, index_t, double,
                                          const double* const*, index_t,
                                          const double* const*, index_t,
                                          double, double* const*, index_t,
                                          index_t, int, const GemmWorkspace&);

}  // namespace dmtk::blas
