#include "exec/sweep_plan.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "blas/blas.hpp"
#include "core/krp_detail.hpp"
#include "exec/sparse_mttkrp_plan.hpp"
#include "util/timer.hpp"

namespace dmtk {

std::string_view to_string(SweepScheme s) {
  switch (s) {
    case SweepScheme::Auto: return "auto";
    case SweepScheme::PerMode: return "permode";
    case SweepScheme::DimTree: return "dimtree";
    case SweepScheme::SparseCsf: return "csf";
    case SweepScheme::SparseCoo: return "coo";
  }
  return "?";
}

std::optional<SweepScheme> parse_sweep_scheme(std::string_view name) {
  if (name == "auto") return SweepScheme::Auto;
  if (name == "permode" || name == "per-mode") return SweepScheme::PerMode;
  if (name == "dimtree" || name == "dim-tree") return SweepScheme::DimTree;
  if (name == "csf" || name == "sparse-csf") return SweepScheme::SparseCsf;
  if (name == "coo" || name == "sparse-coo") return SweepScheme::SparseCoo;
  return std::nullopt;
}

index_t sweep_balanced_split(std::span<const index_t> dims, index_t a,
                             index_t b) {
  DMTK_CHECK(b - a >= 2, "sweep_balanced_split: interval too short");
  index_t total = 1;
  for (index_t k = a; k < b; ++k) total *= dims[static_cast<std::size_t>(k)];
  index_t best = a + 1;
  index_t best_cost = std::numeric_limits<index_t>::max();
  index_t left = 1;
  for (index_t s = a + 1; s < b; ++s) {
    left *= dims[static_cast<std::size_t>(s - 1)];
    const index_t cost = std::max(left, total / left);
    if (cost < best_cost) {
      best_cost = cost;
      best = s;
    }
  }
  return best;
}

template <typename T>
CpAlsSweepPlanT<T>::CpAlsSweepPlanT(const ExecContext& ctx,
                                    std::span<const index_t> dims,
                                    index_t rank, SweepScheme scheme,
                                    MttkrpMethod method)
    : ctx_(&ctx),
      dims_(dims.begin(), dims.end()),
      rank_(rank),
      requested_(scheme) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(N >= 2, "sweep plan: tensor must have at least 2 modes");
  DMTK_CHECK(rank >= 1, "sweep plan: rank must be positive");
  for (index_t d : dims_) {
    DMTK_CHECK(d >= 1, "sweep plan: extents must be positive");
  }
  nt_ = ctx.threads();
  // The Auto heuristic (resolve_sweep_scheme): DimTree for N >= 4 unless
  // an explicit per-mode kernel request pins PerMode. Never a sparse
  // scheme — those require the sparse constructor.
  scheme_ = resolve_sweep_scheme(requested_, N, method);
  DMTK_CHECK(scheme_ == SweepScheme::PerMode || scheme_ == SweepScheme::DimTree,
             "sweep plan: sparse scheme requested for a dense tensor — "
             "construct the plan from a SparseTensor instead");

  if (scheme_ == SweepScheme::PerMode) {
    mode_plans_.reserve(static_cast<std::size_t>(N));
    timings_.nodes.reserve(static_cast<std::size_t>(N));
    for (index_t n = 0; n < N; ++n) {
      mode_plans_.emplace_back(ctx, dims, rank, n, method);
      SweepNodeTimings tm;
      tm.first = n;
      tm.last = n + 1;
      tm.leaf = true;
      timings_.nodes.push_back(tm);
    }
    return;
  }

  // The two-group tree: one balanced root split. A one-mode group is its
  // own leaf; a larger group recovers each of its modes directly from the
  // group intermediate, one (possibly two-sided) contraction per leaf.
  const index_t s = sweep_balanced_split(dims_, 0, N);
  leaf_node_.assign(static_cast<std::size_t>(N), -1);
  for (const auto& [a, b] : {std::pair{index_t{0}, s}, std::pair{s, N}}) {
    const int group = add_node(a, b, -1);
    if (b - a == 1) {
      leaf_node_[static_cast<std::size_t>(a)] = group;
      continue;
    }
    for (index_t n = a; n < b; ++n) {
      leaf_node_[static_cast<std::size_t>(n)] = add_node(n, n + 1, group);
    }
  }

  plan_node_layout();
  ctx.arena().template reserve<T>(ws_elems_);

  timings_.nodes.resize(nodes_.size());
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    SweepNodeTimings& tm = timings_.nodes[id];
    tm.first = nodes_[id].a;
    tm.last = nodes_[id].b;
    tm.depth = nodes_[id].parent < 0 ? 0 : 1;
    tm.leaf = nodes_[id].leaf;
  }

  fl_.reserve(static_cast<std::size_t>(N));
  packed_.reserve(static_cast<std::size_t>(N));
  digits_stride_ = static_cast<std::size_t>(N);
  digits_.assign(static_cast<std::size_t>(nt_) * digits_stride_, 0);
  batch_a_.resize(static_cast<std::size_t>(rank_));
  batch_b_.resize(static_cast<std::size_t>(rank_));
  batch_c_.resize(static_cast<std::size_t>(rank_));
}

template <typename T>
CpAlsSweepPlanT<T>::CpAlsSweepPlanT(const ExecContext& ctx,
                                    const sparse::SparseTensorT<T>& X,
                                    index_t rank, SweepScheme scheme)
    : ctx_(&ctx), rank_(rank), requested_(scheme) {
  dims_.assign(X.dims().begin(), X.dims().end());
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(N >= 2, "sweep plan: tensor must have at least 2 modes");
  DMTK_CHECK(rank >= 1, "sweep plan: rank must be positive");
  nt_ = ctx.threads();
  // Sparse input resolves Auto to the CSF kernel; the dense heuristic of
  // resolve_sweep_scheme never applies here (and dense schemes are
  // rejected — a sparse tensor has no dense matricization to sweep).
  scheme_ = resolve_sparse_sweep_scheme(scheme);
  DMTK_CHECK(
      scheme_ == SweepScheme::SparseCsf || scheme_ == SweepScheme::SparseCoo,
      "sweep plan: dense scheme requested for a sparse tensor — use "
      "SweepScheme::SparseCsf / SparseCoo (or Auto)");
  sparse_plan_ = std::make_unique<SparseMttkrpPlanT<T>>(
      ctx, X, rank,
      scheme_ == SweepScheme::SparseCsf ? SparseMttkrpKernel::Csf
                                        : SparseMttkrpKernel::Coo);
  sparse_ws_bytes_ = sparse_plan_->workspace_bytes();
  timings_.nodes.reserve(static_cast<std::size_t>(N));
  for (index_t n = 0; n < N; ++n) {
    SweepNodeTimings tm;
    tm.first = n;
    tm.last = n + 1;
    tm.leaf = true;
    timings_.nodes.push_back(tm);
  }
}

template <typename T>
CpAlsSweepPlanT<T>::~CpAlsSweepPlanT() = default;

template <typename T>
const SparseMttkrpPlanT<T>& CpAlsSweepPlanT<T>::sparse_plan() const {
  DMTK_CHECK(sparse_plan_ != nullptr,
             "sweep plan: sparse_plan() requires a sparse scheme");
  return *sparse_plan_;
}

template <typename T>
int CpAlsSweepPlanT<T>::add_node(index_t a, index_t b, int parent) {
  // Sibling-interval trims relative to the parent interval.
  const index_t pa =
      parent < 0 ? 0 : nodes_[static_cast<std::size_t>(parent)].a;
  const index_t pb = parent < 0 ? static_cast<index_t>(dims_.size())
                                : nodes_[static_cast<std::size_t>(parent)].b;
  Node& nd = nodes_.emplace_back();
  nd.a = a;
  nd.b = b;
  nd.parent = parent;
  nd.out_rows = 1;
  for (index_t k = a; k < b; ++k) {
    nd.out_rows *= dims_[static_cast<std::size_t>(k)];
  }
  nd.leaf = (b - a == 1);
  auto fill_trim = [&](TrimSpec& t, index_t u, index_t v) {
    t.u = u;
    t.v = v;
    t.rows = 1;
    for (index_t k = v; k-- > u;) {
      t.extents.push_back(dims_[static_cast<std::size_t>(k)]);
      t.rows *= dims_[static_cast<std::size_t>(k)];
    }
  };
  fill_trim(nd.left, pa, a);
  fill_trim(nd.right, b, pb);
  if (!nd.left.empty() && !nd.right.empty()) {
    // Contract the larger side first: the surviving mid intermediate is
    // then as small as possible (the 2-step side heuristic, Alg. 4).
    nd.left_first = nd.left.rows >= nd.right.rows;
    nd.t_rows = nd.out_rows * (nd.left_first ? nd.right.rows : nd.left.rows);
  }
  return static_cast<int>(nodes_.size()) - 1;
}

template <typename T>
void CpAlsSweepPlanT<T>::plan_node_layout() {
  const index_t C = rank_;
  const std::size_t snt = static_cast<std::size_t>(nt_);

  // Intermediate slot at the front of the frame, sized for the larger
  // group. The in-order sweep is done with the left group's leaves before
  // the right group is computed, so the two groups share it. Leaves write
  // the caller's M.
  scratch_base_ = 0;
  for (const Node& nd : nodes_) {
    if (nd.leaf) continue;
    scratch_base_ = std::max(scratch_base_,
                             WorkspaceArena::aligned_count<T>(
                                 static_cast<std::size_t>(nd.out_rows * C)));
  }

  // Per-evaluation scratch region, reused serially across nodes: packed
  // factor panels + transposed-KRP buffer per trim, the two-trim mid
  // intermediate, per-thread partial-Hadamard scratch, and the GEMM
  // packing workspace.
  std::size_t scratch_max = 0;
  for (Node& nd : nodes_) {
    std::size_t off = 0;
    auto take = [&off](std::size_t elems) {
      const std::size_t at = off;
      off += WorkspaceArena::aligned_count<T>(elems);
      return at;
    };
    std::size_t p_need = 0;
    for (TrimSpec* t : {&nd.left, &nd.right}) {
      if (t->empty()) continue;
      t->packed_off.resize(t->extents.size());
      for (std::size_t z = 0; z < t->extents.size(); ++z) {
        t->packed_off[z] =
            take(static_cast<std::size_t>(t->extents[z] * C));
      }
      t->off_krp = take(static_cast<std::size_t>(t->rows * C));
      if (t->extents.size() >= 3) {
        p_need = std::max(
            p_need, static_cast<std::size_t>(C) * (t->extents.size() - 2));
      }
    }
    if (!nd.left.empty() && !nd.right.empty()) {
      nd.off_t = take(static_cast<std::size_t>(nd.t_rows * C));
    }
    if (p_need > 0) {
      nd.stride_p = WorkspaceArena::aligned_count<T>(p_need);
      nd.off_p = take(snt * nd.stride_p);
    }
    if (nd.parent < 0) {
      const TrimSpec& t = nd.right.empty() ? nd.left : nd.right;
      nd.gws_elems = blas::gemm_workspace_elems<T>(nd.out_rows, C, t.rows,
                                                   nt_);
    } else {
      std::size_t need = 0;
      if (!nd.left.empty() && !nd.right.empty()) {
        const TrimSpec& first = nd.left_first ? nd.left : nd.right;
        const TrimSpec& second = nd.left_first ? nd.right : nd.left;
        need = std::max(
            blas::gemm_batched_workspace_elems<T>(nd.t_rows, 1, first.rows,
                                                  nt_),
            blas::gemm_batched_workspace_elems<T>(nd.out_rows, 1, second.rows,
                                                  nt_));
      } else {
        const TrimSpec& t = nd.right.empty() ? nd.left : nd.right;
        need = blas::gemm_batched_workspace_elems<T>(nd.out_rows, 1, t.rows,
                                                     nt_);
      }
      nd.gws_elems = need;
    }
    nd.off_gws = take(nd.gws_elems);
    nd.scratch_elems = off;
    scratch_max = std::max(scratch_max, off);
  }
  ws_elems_ = scratch_base_ + scratch_max;
}

template <typename T>
void CpAlsSweepPlanT<T>::begin_sweep(const TensorT<T>& X) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(!is_sparse(),
             "sweep plan: dense begin_sweep on a sparse-scheme plan");
  DMTK_CHECK(X.order() == N, "sweep plan: tensor order mismatch");
  for (index_t n = 0; n < N; ++n) {
    DMTK_CHECK(X.dim(n) == dims_[static_cast<std::size_t>(n)],
               "sweep plan: tensor extents differ from the planned shape");
  }
  next_mode_ = 0;
  sweep_active_ = true;
  sweep_seconds_ = 0.0;
  if (scheme_ == SweepScheme::DimTree) {
    frame_.reset();  // tolerate an abandoned previous sweep
    frame_.emplace(ctx_->arena());
    base_ = ws_elems_ > 0 ? frame_->template alloc<T>(ws_elems_) : nullptr;
  }
}

template <typename T>
void CpAlsSweepPlanT<T>::begin_sweep(const sparse::SparseTensorT<T>& X) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(is_sparse(),
             "sweep plan: sparse begin_sweep on a dense-scheme plan");
  DMTK_CHECK(X.order() == N, "sweep plan: tensor order mismatch");
  for (index_t n = 0; n < N; ++n) {
    DMTK_CHECK(X.dim(n) == dims_[static_cast<std::size_t>(n)],
               "sweep plan: tensor extents differ from the planned shape");
  }
  // The sparse plan bound its tensor at construction; a different nonzero
  // count here means the caller swapped tensors under the plan.
  DMTK_CHECK(X.nnz() == sparse_plan_->nnz(),
             "sweep plan: sparse tensor differs from the one planned for");
  next_mode_ = 0;
  sweep_active_ = true;
  sweep_seconds_ = 0.0;
}

template <typename T>
void CpAlsSweepPlanT<T>::check_mode_request(index_t n,
                                            std::span<const MatrixT<T>> factors,
                                            MatrixT<T>& M) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(sweep_active_, "sweep plan: begin_sweep() before mode_mttkrp()");
  DMTK_CHECK(n == next_mode_,
             "sweep plan: modes must be requested in order 0..N-1");
  DMTK_CHECK(static_cast<index_t>(factors.size()) == N,
             "sweep plan: need one factor matrix per mode");
  for (index_t k = 0; k < N; ++k) {
    const MatrixT<T>& U = factors[static_cast<std::size_t>(k)];
    DMTK_CHECK(U.cols() == rank_, "sweep plan: factors disagree on rank");
    DMTK_CHECK(U.rows() == dims_[static_cast<std::size_t>(k)],
               "sweep plan: factor rows != mode size");
  }
  const index_t In = dims_[static_cast<std::size_t>(n)];
  if (M.rows() != In || M.cols() != rank_) M = MatrixT<T>(In, rank_);
}

template <typename T>
void CpAlsSweepPlanT<T>::finish_mode(double seconds) {
  sweep_seconds_ += seconds;
  timings_.mttkrp_seconds += seconds;
  ++next_mode_;
  if (next_mode_ == static_cast<index_t>(dims_.size())) {
    sweep_active_ = false;
    frame_.reset();
    base_ = nullptr;
  }
}

template <typename T>
void CpAlsSweepPlanT<T>::mode_mttkrp(index_t n, const TensorT<T>& X,
                                     std::span<const MatrixT<T>> factors,
                                     MatrixT<T>& M) {
  DMTK_CHECK(!is_sparse(),
             "sweep plan: dense mode_mttkrp on a sparse-scheme plan");
  check_mode_request(n, factors, M);

  WallTimer t;
  if (scheme_ == SweepScheme::PerMode) {
    mode_plans_[static_cast<std::size_t>(n)].execute(X, factors, M);
    SweepNodeTimings& tm = timings_.nodes[static_cast<std::size_t>(n)];
    tm.contract_seconds += t.seconds();
    ++tm.evals;
  } else {
    // A group is computed when its first mode is served; its leaves then
    // read the intermediate until the sweep moves on to the next group.
    const int leaf = leaf_node_[static_cast<std::size_t>(n)];
    const int group = nodes_[static_cast<std::size_t>(leaf)].parent;
    if (group >= 0 && nodes_[static_cast<std::size_t>(group)].a == n) {
      eval_node(group, X, factors, nullptr);
    }
    eval_node(leaf, X, factors, &M);
  }
  finish_mode(t.seconds());
}

template <typename T>
void CpAlsSweepPlanT<T>::mode_mttkrp(index_t n,
                                     const sparse::SparseTensorT<T>& X,
                                     std::span<const MatrixT<T>> factors,
                                     MatrixT<T>& M) {
  DMTK_CHECK(is_sparse(),
             "sweep plan: sparse mode_mttkrp on a dense-scheme plan");
  DMTK_CHECK(X.nnz() == sparse_plan_->nnz(),
             "sweep plan: sparse tensor differs from the one planned for");
  check_mode_request(n, factors, M);

  WallTimer t;
  sparse_plan_->execute(n, factors, M);
  SweepNodeTimings& tm = timings_.nodes[static_cast<std::size_t>(n)];
  tm.contract_seconds += t.seconds();
  ++tm.evals;
  finish_mode(t.seconds());
}

template <typename T>
const T* CpAlsSweepPlanT<T>::form_trim_krp(const Node& nd,
                                           const TrimSpec& trim,
                                           std::span<const MatrixT<T>> factors) {
  const index_t C = rank_;
  T* scratch = base_ + scratch_base_;
  const std::size_t Z = trim.extents.size();
  fl_.resize(Z);
  std::size_t i = 0;
  for (index_t k = trim.v; k-- > trim.u;) {
    fl_[i++] = &factors[static_cast<std::size_t>(k)];
  }
  packed_.resize(Z);
  for (std::size_t z = 0; z < Z; ++z) {
    T* P = scratch + trim.packed_off[z];
    detail::pack_factor_transposed(*fl_[z], C, P);
    packed_[z] = P;
  }
  T* Kt = scratch + trim.off_krp;
  detail::krp_transposed_blocks<T>(packed_, trim.extents, C, trim.rows, nt_,
                                   Kt, scratch + nd.off_p, nd.stride_p,
                                   digits_.data(), digits_stride_);
  return Kt;
}

template <typename T>
void CpAlsSweepPlanT<T>::contract_batched(const Node& nd, const T* src,
                                          index_t src_rows,
                                          const TrimSpec& trim, const T* krp,
                                          bool contract_left, T* dst,
                                          index_t dst_rows) {
  const index_t C = rank_;
  // Component c of the source is a (trim.rows x dst_rows) [contract_left]
  // or (dst_rows x trim.rows) column-major block; its contraction against
  // KRP row c (read strided out of the C x rows transposed-KRP buffer) is
  // one m x 1 x k GEMM. The batch has one accumulation group per
  // component, so when C < threads the batched kernel splits rows inside
  // the groups and the whole team stays busy — the small-rank idle-thread
  // problem of the per-component loop this replaces.
  for (index_t c = 0; c < C; ++c) {
    const std::size_t sc = static_cast<std::size_t>(c);
    batch_a_[sc] = src + c * src_rows;
    batch_b_[sc] = krp + c;
    batch_c_[sc] = dst + c * dst_rows;
  }
  const blas::GemmWorkspace gws = blas::typed_workspace(
      base_ + scratch_base_ + nd.off_gws, nd.gws_elems);
  blas::gemm_batched(blas::Layout::ColMajor,
                     contract_left ? blas::Trans::Trans
                                   : blas::Trans::NoTrans,
                     blas::Trans::Trans, dst_rows, index_t{1}, trim.rows, T{1},
                     batch_a_.data(), contract_left ? trim.rows : dst_rows,
                     batch_b_.data(), C, T{0}, batch_c_.data(), dst_rows, C,
                     nt_, gws);
}

template <typename T>
void CpAlsSweepPlanT<T>::eval_node(int id, const TensorT<T>& X,
                                   std::span<const MatrixT<T>> factors,
                                   MatrixT<T>* M) {
  Node& nd = nodes_[static_cast<std::size_t>(id)];
  SweepNodeTimings& tm = timings_.nodes[static_cast<std::size_t>(id)];
  T* out = nd.leaf ? M->data() : base_;

  if (nd.parent < 0) {
    // A group: the sweep's only full-tensor passes, as one plain GEMM of X
    // (viewed as its multi-mode matricization) against the other group's
    // transposed KRP.
    const bool right = !nd.right.empty();
    const TrimSpec& trim = right ? nd.right : nd.left;
    WallTimer tk;
    const T* krp = form_trim_krp(nd, trim, factors);
    tm.krp_seconds += tk.seconds();
    WallTimer tg;
    const blas::GemmWorkspace gws = blas::typed_workspace(
        base_ + scratch_base_ + nd.off_gws, nd.gws_elems);
    if (right) {
      // [0, s): X(0:s-1) is out_rows x trim.rows column-major.
      blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans,
                 blas::Trans::Trans, nd.out_rows, rank_, trim.rows, T{1},
                 X.data(), nd.out_rows, krp, rank_, T{0}, out,
                 nd.leaf ? M->ld() : nd.out_rows, nt_, gws);
    } else {
      // [s, N): the transpose view of the same matricization.
      blas::gemm(blas::Layout::ColMajor, blas::Trans::Trans,
                 blas::Trans::Trans, nd.out_rows, rank_, trim.rows, T{1},
                 X.data(), trim.rows, krp, rank_, T{0}, out,
                 nd.leaf ? M->ld() : nd.out_rows, nt_, gws);
    }
    tm.contract_seconds += tg.seconds();
  } else {
    const Node& par = nodes_[static_cast<std::size_t>(nd.parent)];
    const T* src = base_;
    if (!nd.left.empty() && !nd.right.empty()) {
      const TrimSpec& first = nd.left_first ? nd.left : nd.right;
      const TrimSpec& second = nd.left_first ? nd.right : nd.left;
      T* Tbuf = base_ + scratch_base_ + nd.off_t;
      WallTimer tk1;
      const T* k1 = form_trim_krp(nd, first, factors);
      tm.krp_seconds += tk1.seconds();
      WallTimer tg1;
      contract_batched(nd, src, par.out_rows, first, k1, nd.left_first, Tbuf,
                       nd.t_rows);
      tm.contract_seconds += tg1.seconds();
      WallTimer tk2;
      const T* k2 = form_trim_krp(nd, second, factors);
      tm.krp_seconds += tk2.seconds();
      WallTimer tg2;
      contract_batched(nd, Tbuf, nd.t_rows, second, k2, !nd.left_first, out,
                       nd.out_rows);
      tm.contract_seconds += tg2.seconds();
    } else {
      const TrimSpec& trim = nd.right.empty() ? nd.left : nd.right;
      WallTimer tk;
      const T* krp = form_trim_krp(nd, trim, factors);
      tm.krp_seconds += tk.seconds();
      WallTimer tg;
      contract_batched(nd, src, par.out_rows, trim, krp, nd.right.empty(),
                       out, nd.out_rows);
      tm.contract_seconds += tg.seconds();
    }
  }
  ++tm.evals;
}

template <typename T>
MttkrpTimings CpAlsSweepPlanT<T>::per_mode_timings() const {
  MttkrpTimings total;
  for (const MttkrpPlanT<T>& p : mode_plans_) total += p.timings();
  return total;
}

template <typename T>
void CpAlsSweepPlanT<T>::reset_timings() {
  timings_.mttkrp_seconds = 0.0;
  for (SweepNodeTimings& tm : timings_.nodes) {
    tm.evals = 0;
    tm.krp_seconds = 0.0;
    tm.contract_seconds = 0.0;
  }
  for (MttkrpPlanT<T>& p : mode_plans_) p.reset_timings();
  sweep_seconds_ = 0.0;
}

template class CpAlsSweepPlanT<double>;
template class CpAlsSweepPlanT<float>;

}  // namespace dmtk
