#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Direct summation of mode-n MTTKRP rows. The Khatri-Rao rows of the
/// modes left of n (one per left index a) and right of n (one per right
/// index b), mode 0 fastest, are formed once in double and shared by
/// every row checked.
template <typename T>
class RowChecker {
 public:
  RowChecker(const dmtk::TensorT<T>& X, const std::vector<dmtk::MatrixT<T>>& U,
             index_t n)
      : X_(X), n_(n), C_(U.front().cols()),
        left_(products(X, U, 0, n, X.left_size(n))),
        right_(products(X, U, n + 1, X.order(), X.right_size(n))) {}

  /// Worst relative error over the C entries of row i of M.
  [[nodiscard]] double error(index_t i, const dmtk::MatrixT<T>& M) const {
    const index_t L = X_.left_size(n_);
    const index_t R = X_.right_size(n_);
    const index_t In = X_.dim(n_);
    const auto C = static_cast<std::size_t>(C_);
    std::vector<double> sum(C, 0.0), scale(C, 0.0);
    for (index_t b = 0; b < R; ++b) {
      const double* rb = right_.data() + static_cast<std::size_t>(b) * C;
      const T* x = X_.data() + (b * In + i) * L;
      for (index_t a = 0; a < L; ++a) {
        const double* la = left_.data() + static_cast<std::size_t>(a) * C;
        const double xa = static_cast<double>(x[a]);
        for (std::size_t c = 0; c < C; ++c) {
          const double term = xa * la[c] * rb[c];
          sum[c] += term;
          scale[c] += std::abs(term);
        }
      }
    }
    double worst = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      const double err =
          std::abs(static_cast<double>(M(i, static_cast<index_t>(c))) -
                   sum[c]) /
          std::max(scale[c], 1e-300);
      worst = std::max(worst, err);
    }
    return worst;
  }

 private:
  static std::vector<double> products(const dmtk::TensorT<T>& X,
                                      const std::vector<dmtk::MatrixT<T>>& U,
                                      index_t first, index_t last,
                                      index_t count) {
    const index_t C = U.front().cols();
    std::vector<double> p(static_cast<std::size_t>(count * C), 1.0);
    std::vector<index_t> idx(static_cast<std::size_t>(last - first), 0);
    for (index_t a = 0; a < count; ++a) {
      for (index_t k = first; k < last; ++k) {
        const index_t ik = idx[static_cast<std::size_t>(k - first)];
        for (index_t c = 0; c < C; ++c) {
          p[static_cast<std::size_t>(a * C + c)] *=
              static_cast<double>(U[static_cast<std::size_t>(k)](ik, c));
        }
      }
      // Odometer step, first index fastest.
      for (index_t k = first; k < last; ++k) {
        index_t& ik = idx[static_cast<std::size_t>(k - first)];
        if (++ik < X.dim(k)) break;
        ik = 0;
      }
    }
    return p;
  }

  const dmtk::TensorT<T>& X_;
  index_t n_;
  index_t C_;
  std::vector<double> left_;
  std::vector<double> right_;
};

}  // namespace

template <typename T>
double mttkrp_row_error(const dmtk::TensorT<T>& X,
                        const std::vector<dmtk::MatrixT<T>>& U, index_t n,
                        index_t i, const dmtk::MatrixT<T>& M) {
  return RowChecker<T>(X, U, n).error(i, M);
}

template <typename T>
bool check_mttkrp_rows(const dmtk::TensorT<T>& X,
                       const std::vector<dmtk::MatrixT<T>>& U,
                       const std::vector<dmtk::MatrixT<T>>& Ms,
                       std::uint64_t seed, int rows) {
  dmtk::Rng rng(seed);
  double worst = 0.0;
  for (index_t n = 0; n < X.order(); ++n) {
    const RowChecker<T> checker(X, U, n);
    for (int r = 0; r < rows; ++r) {
      const auto i = static_cast<index_t>(
          rng.below(static_cast<std::uint64_t>(X.dim(n))));
      const double err = checker.error(i, Ms[static_cast<std::size_t>(n)]);
      worst = std::max(worst, err);
      if (!(err <= kRowTol<T>)) {
        std::fprintf(stderr,
                     "[perfbench] gate: mode-%lld MTTKRP row %lld off by "
                     "%.3g (tolerance %.1g)\n",
                     static_cast<long long>(n), static_cast<long long>(i),
                     err, kRowTol<T>);
        return false;
      }
    }
  }
  std::fprintf(stderr,
               "[perfbench] gate: %d MTTKRP rows per mode within %.1g "
               "(worst %.3g)\n",
               rows, kRowTol<T>, worst);
  return true;
}

template <typename T>
std::vector<dmtk::MatrixT<T>> plan_mttkrps(
    dmtk::CpAlsSweepPlanT<T>& plan, const dmtk::TensorT<T>& X,
    const std::vector<dmtk::MatrixT<T>>& U) {
  std::vector<dmtk::MatrixT<T>> Ms(U.size());
  plan.begin_sweep(X);
  for (index_t n = 0; n < X.order(); ++n) {
    plan.mode_mttkrp(n, X, U, Ms[static_cast<std::size_t>(n)]);
  }
  return Ms;
}

#define PERFBENCH_GATE(T)                                                   \
  template double mttkrp_row_error<T>(const dmtk::TensorT<T>&,              \
                                      const std::vector<dmtk::MatrixT<T>>&, \
                                      index_t, index_t,                     \
                                      const dmtk::MatrixT<T>&);             \
  template bool check_mttkrp_rows<T>(const dmtk::TensorT<T>&,               \
                                     const std::vector<dmtk::MatrixT<T>>&,  \
                                     const std::vector<dmtk::MatrixT<T>>&,  \
                                     std::uint64_t, int);                   \
  template std::vector<dmtk::MatrixT<T>> plan_mttkrps<T>(                   \
      dmtk::CpAlsSweepPlanT<T>&, const dmtk::TensorT<T>&,                   \
      const std::vector<dmtk::MatrixT<T>>&);
PERFBENCH_GATE(double)
PERFBENCH_GATE(float)
#undef PERFBENCH_GATE

}  // namespace perfbench
