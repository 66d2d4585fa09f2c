#include "exec/sparse_mttkrp_plan.hpp"

#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace dmtk {

template <typename T>
SparseMttkrpPlanT<T>::SparseMttkrpPlanT(const ExecContext& ctx,
                                        const sparse::SparseTensorT<T>& X,
                                        index_t rank)
    : ctx_(&ctx),
      dims_(X.dims().begin(), X.dims().end()),
      rank_(rank),
      nnz_(X.nnz()) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(N >= 2, "sparse plan: tensor must have at least 2 modes");
  DMTK_CHECK(rank >= 1, "sparse plan: rank must be positive");
  nt_ = ctx.threads();

  // One mode-rooted tree per mode, plus the per-thread root tiling — the
  // whole sort/merge/compress cost is paid here, once.
  csf_.reserve(static_cast<std::size_t>(N));
  tiles_.resize(static_cast<std::size_t>(N));
  for (index_t n = 0; n < N; ++n) {
    csf_.push_back(sparse::CsfTensorT<T>::build(
        X, sparse::CsfTensorT<T>::root_first_perm(dims_, n)));
    std::vector<Range>& tn = tiles_[static_cast<std::size_t>(n)];
    tn.resize(static_cast<std::size_t>(nt_));
    const index_t roots = csf_.back().nodes(0);
    for (int t = 0; t < nt_; ++t) {
      tn[static_cast<std::size_t>(t)] = block_range(roots, nt_, t);
    }
  }
  stride_scratch_ = WorkspaceArena::aligned_count<double>(
      sparse::csf_mttkrp_scratch_accums(N, rank_));
  ws_doubles_ = static_cast<std::size_t>(nt_) * stride_scratch_;
  ctx.arena().reserve<double>(ws_doubles_);
}

template <typename T>
const sparse::CsfTensorT<T>& SparseMttkrpPlanT<T>::csf(index_t mode) const {
  DMTK_CHECK(mode >= 0 && mode < static_cast<index_t>(csf_.size()),
             "sparse plan: mode out of range");
  return csf_[static_cast<std::size_t>(mode)];
}

template <typename T>
void SparseMttkrpPlanT<T>::execute(index_t mode,
                                   std::span<const MatrixT<T>> factors,
                                   MatrixT<T>& M) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(mode >= 0 && mode < N, "sparse plan: mode out of range");
  DMTK_CHECK(static_cast<index_t>(factors.size()) == N,
             "sparse plan: need one factor matrix per mode");
  for (index_t n = 0; n < N; ++n) {
    const MatrixT<T>& U = factors[static_cast<std::size_t>(n)];
    DMTK_CHECK(U.cols() == rank_, "sparse plan: factors disagree on rank");
    DMTK_CHECK(U.rows() == dims_[static_cast<std::size_t>(n)],
               "sparse plan: factor rows != mode size");
  }
  const index_t In = dims_[static_cast<std::size_t>(mode)];
  if (M.rows() != In || M.cols() != rank_) M = MatrixT<T>(In, rank_);

  WallTimer timer;
  WorkspaceArena::Frame frame(ctx_->arena());
  double* base = ws_doubles_ > 0 ? frame.alloc<double>(ws_doubles_) : nullptr;
  const sparse::CsfTensorT<T>& T_ = csf_[static_cast<std::size_t>(mode)];
  const std::vector<Range>& tiles = tiles_[static_cast<std::size_t>(mode)];
  // Root fids are distinct, so the tiles write disjoint rows; rows with no
  // root node (empty slices) keep the zero from here. OpenMP may deliver
  // fewer threads than planned (nesting, thread limits), so each worker
  // strides over the planned tiles by the ACTUAL team size — the same
  // defense the dense KRP blocks use — instead of assuming tile t runs.
  M.set_zero();
  parallel_region(nt_, [&](int t, int nteam) {
    for (int b = t; b < nt_; b += nteam) {
      sparse::csf_mttkrp_root_range(T_, factors, M,
                                    tiles[static_cast<std::size_t>(b)],
                                    base + static_cast<std::size_t>(t) *
                                               stride_scratch_);
    }
  });
  total_seconds_ += timer.seconds();
}

template class SparseMttkrpPlanT<double>;
template class SparseMttkrpPlanT<float>;

}  // namespace dmtk
