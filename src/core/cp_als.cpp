#include "core/cp_als.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "blas/blas.hpp"
#include "core/cp_als_detail.hpp"
#include "exec/sweep_plan.hpp"

namespace dmtk {

template <typename T>
void hadamard_of_grams_into(const std::vector<MatrixT<T>>& grams, index_t skip,
                            MatrixT<T>& H) {
  DMTK_CHECK(!grams.empty(), "hadamard_of_grams: empty input");
  const index_t C = grams[0].rows();
  if (H.rows() != C || H.cols() != C) H = MatrixT<T>(C, C);
  H.fill(T{1});
  for (index_t k = 0; k < static_cast<index_t>(grams.size()); ++k) {
    if (k == skip) continue;
    const MatrixT<T>& G = grams[static_cast<std::size_t>(k)];
    DMTK_CHECK(G.rows() == C && G.cols() == C,
               "hadamard_of_grams: non-conforming Gram matrix");
    blas::hadamard_inplace(C * C, G.data(), H.data());
  }
}

template <typename T>
MatrixT<T> hadamard_of_grams(const std::vector<MatrixT<T>>& grams,
                             index_t skip) {
  MatrixT<T> H;
  hadamard_of_grams_into(grams, skip, H);
  return H;
}

namespace {

/// The shared standard-ALS body behind both cp_als overloads: initialize
/// the model, then run the sweep loop with the exact-solve factor update.
template <typename T>
CpAlsResultT<T> run_standard(const TensorT<T>& X, const CpAlsOptionsT<T>& opts,
                             const ExecContext& ctx,
                             CpAlsSweepPlanT<T>* sweep) {
  const int nt = ctx.threads();
  CpAlsResultT<T> result;
  detail::init_model(X, opts, "cp_als", result.model);
  KtensorT<T>& model = result.model;

  detail::run_als_sweeps(
      X, opts, ctx, sweep, result,
      [&](index_t n, MatrixT<T>& H, MatrixT<T>& M, int iter) {
        detail::factor_solve(H, M, nt);
        MatrixT<T>& U = model.factors[static_cast<std::size_t>(n)];
        std::swap(U, M);
        detail::normalize_update(U, model.lambda, iter == 0);
      });
  return result;
}

}  // namespace

template <typename T>
CpAlsResultT<T> cp_als(const TensorT<T>& X, const CpAlsOptionsT<T>& opts) {
  const index_t N = X.order();
  const index_t C = opts.rank;
  DMTK_CHECK(N >= 2, "cp_als: tensor must have at least 2 modes");
  DMTK_CHECK(C >= 1, "cp_als: rank must be positive");

  // Execution context: caller-supplied (shared arena) or private.
  std::optional<ExecContext> own_ctx;
  const ExecContext& ctx =
      opts.exec != nullptr ? *opts.exec : own_ctx.emplace(opts.threads);

  // One sweep plan for the whole factorization: scheme dispatch, tree
  // construction (DimTree) or per-mode MttkrpPlans (PerMode), and the
  // complete workspace layout are paid once, and the sweeps below run
  // without touching the heap.
  std::optional<CpAlsSweepPlanT<T>> sweep;
  if (!opts.mttkrp_override) {
    sweep.emplace(ctx, X.dims(), C, opts.sweep_scheme, opts.method);
  }
  return run_standard(X, opts, ctx, sweep ? &*sweep : nullptr);
}

template <typename T>
CpAlsResultT<T> cp_als(const TensorT<T>& X, const CpAlsOptionsT<T>& opts,
                       CpAlsSweepPlanT<T>& plan) {
  DMTK_CHECK(X.order() >= 2, "cp_als: tensor must have at least 2 modes");
  DMTK_CHECK(opts.rank >= 1, "cp_als: rank must be positive");
  DMTK_CHECK(!opts.mttkrp_override,
             "cp_als: the plan overload cannot take an mttkrp_override");
  DMTK_CHECK(!plan.is_sparse(), "cp_als: dense driver needs a dense plan");
  DMTK_CHECK(plan.rank() == opts.rank,
             "cp_als: plan rank does not match opts.rank");
  const auto pd = plan.dims();
  const auto xd = X.dims();
  DMTK_CHECK(pd.size() == xd.size() &&
                 std::equal(pd.begin(), pd.end(), xd.begin()),
             "cp_als: plan extents do not match the tensor");
  // The plan's sweeps draw from its own context's arena; running them
  // against any other context would be wrong, so opts.exec is ignored.
  return run_standard(X, opts, plan.context(), &plan);
}

CpAlsOptionsF::MttkrpFn mttkrp_acc64_override() {
  return [](const TensorF& X, std::span<const MatrixF> factors, index_t mode,
            MatrixF& M, const ExecContext& ctx) {
    mttkrp_acc64(X, factors, mode, M, ctx.threads());
  };
}

template CpAlsResult cp_als<double>(const Tensor&, const CpAlsOptions&);
template CpAlsResultF cp_als<float>(const TensorF&, const CpAlsOptionsF&);
template CpAlsResult cp_als<double>(const Tensor&, const CpAlsOptions&,
                                    CpAlsSweepPlan&);
template CpAlsResultF cp_als<float>(const TensorF&, const CpAlsOptionsF&,
                                    CpAlsSweepPlanF&);
template Matrix hadamard_of_grams<double>(const std::vector<Matrix>&, index_t);
template MatrixF hadamard_of_grams<float>(const std::vector<MatrixF>&,
                                          index_t);
template void hadamard_of_grams_into<double>(const std::vector<Matrix>&,
                                             index_t, Matrix&);
template void hadamard_of_grams_into<float>(const std::vector<MatrixF>&,
                                            index_t, MatrixF&);

}  // namespace dmtk
