#include "core/tensor.hpp"

#include <algorithm>
#include <cmath>

#include "util/env.hpp"
#include "util/parallel.hpp"

namespace dmtk {

template <typename T>
TensorT<T>::TensorT(std::vector<index_t> dims)
    : TensorT(std::move(dims), Unwritten{}) {
  set_zero();
}

template <typename T>
TensorT<T>::TensorT(std::vector<index_t> dims, Unwritten)
    : dims_(std::move(dims)) {
  strides_.resize(dims_.size());
  index_t stride = 1;
  for (std::size_t n = 0; n < dims_.size(); ++n) {
    DMTK_CHECK(dims_[n] > 0, "Tensor: nonpositive mode size");
    strides_[n] = stride;
    stride *= dims_[n];
  }
  numel_ = dims_.empty() ? 0 : stride;
  data_.resize(static_cast<std::size_t>(numel_));
}

template <typename T>
double TensorT<T>::norm(int threads) const {
  return std::sqrt(norm_squared(threads));
}

template <typename T>
double TensorT<T>::norm_squared(int threads) const {
  const int nt = resolve_threads(threads);
  const index_t n = numel_;
  // Not an OpenMP reduction: that combines the partial sums in whatever
  // order the threads arrive, so repeated calls could differ in the last
  // bits. Each thread sums its static block once; the partials are then
  // added in thread order, which makes the result a function of the team
  // size alone.
  std::vector<double> partial(static_cast<std::size_t>(nt), 0.0);
#pragma omp parallel num_threads(nt)
  {
    double s = 0.0;
#pragma omp for schedule(static)
    for (index_t i = 0; i < n; ++i) {
      s += static_cast<double>(data_[static_cast<std::size_t>(i)]) *
           static_cast<double>(data_[static_cast<std::size_t>(i)]);
    }
    partial[static_cast<std::size_t>(omp_get_thread_num())] = s;
  }
  double total = 0.0;
  for (double s : partial) total += s;
  return total;
}

template <typename T>
double TensorT<T>::max_abs_diff(const TensorT& other) const {
  DMTK_CHECK(dims_.size() == other.dims_.size() &&
                 std::equal(dims_.begin(), dims_.end(), other.dims_.begin()),
             "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(data_[i]) -
                             static_cast<double>(other.data_[i])));
  }
  return m;
}

template <typename T>
TensorT<T> TensorT<T>::random_uniform(std::vector<index_t> dims, Rng& rng) {
  TensorT X(std::move(dims));
  fill_uniform(X.span(), rng);
  return X;
}

template <typename T>
TensorT<T> TensorT<T>::random_normal(std::vector<index_t> dims, Rng& rng) {
  TensorT X(std::move(dims));
  fill_normal(X.span(), rng);
  return X;
}

template class TensorT<double>;
template class TensorT<float>;

}  // namespace dmtk
