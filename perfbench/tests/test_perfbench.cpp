/// Unit tests of the benchmark's own machinery: the tail-percentile rule,
/// failure accounting, span self time, the MTTKRP row gate, and agreement
/// between BENCHMARK.json and the metrics the program prints. The toy
/// workload runs are separate ctest entries (see CMakeLists.txt).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_tail_rule() {
  CHECK(!tail_percentile(ramp(19)));
  CHECK(tail_percentile(ramp(20))->pct == 50.0);
  CHECK(tail_percentile(ramp(99))->pct == 75.0);
  CHECK(tail_percentile(ramp(100))->pct == 90.0);
  CHECK(tail_percentile(ramp(199))->pct == 90.0);
  CHECK(tail_percentile(ramp(200))->pct == 95.0);
  CHECK(tail_percentile(ramp(1000))->pct == 99.0);
  CHECK(tail_percentile(ramp(10000))->pct == 99.9);
  // Linear interpolation between order statistics.
  CHECK(std::abs(tail_percentile(ramp(100))->value - 90.1) < 1e-12);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_failed_frac() {
  CHECK(failed_frac(0, 0) == 0.0);
  CHECK(failed_frac(0, 120) == 0.0);
  CHECK(failed_frac(3, 12) == 0.25);
  CHECK(failed_frac(12, 12) == 1.0);
}

void test_self_time() {
  // Parent [0, 10] with overlapping children [1, 3] and [2, 5], a child
  // [7, 8] with a grandchild [7.5, 7.75], and a child that overruns the
  // parent's end: self = 10 - (4 + 1 + 0.5) = 4.5.
  const std::vector<Span> spans{{"job.decompose", 0.0, 10.0, -1, 0},
                                {"io.read", 1.0, 3.0, 0, 0},
                                {"io.write", 2.0, 5.0, 0, 0},
                                {"core.cp_als", 7.0, 8.0, 0, 0},
                                {"exec.sweep", 7.5, 7.75, 3, 0},
                                {"io.read", 9.5, 11.0, 0, 0}};
  const std::vector<double> self = self_seconds(spans);
  CHECK(std::abs(self[0] - 4.5) < 1e-12);
  CHECK(std::abs(self[3] - 0.75) < 1e-12);
  CHECK(std::abs(self[4] - 0.25) < 1e-12);
  const auto layers = layer_self_seconds(spans);
  CHECK(std::abs(layers.at("io") - (2.0 + 3.0 + 1.5)) < 1e-12);
  CHECK(std::abs(layers.at("job") - 4.5) < 1e-12);
}

template <typename T>
void test_row_gate(dmtk::SweepScheme scheme, std::vector<index_t> dims) {
  const dmtk::TensorT<T> X = planted_tensor<T>(dims, 3, 0.05, 5);
  dmtk::Rng rng(9);
  const dmtk::Ktensor K = dmtk::Ktensor::random(dims, 3, rng);
  std::vector<dmtk::MatrixT<T>> U;
  for (const dmtk::Matrix& F : K.factors) {
    U.push_back(dmtk::matrix_cast<T>(F));
  }
  dmtk::ExecContext ctx(2);
  dmtk::CpAlsSweepPlanT<T> plan(ctx, X.dims(), 3, scheme);
  std::vector<dmtk::MatrixT<T>> Ms = plan_mttkrps(plan, X, U);
  CHECK(check_mttkrp_rows(X, U, Ms, 1, 4));
  for (index_t n = 0; n < X.order(); ++n) {
    CHECK(mttkrp_row_error(X, U, n, 1, Ms[static_cast<std::size_t>(n)]) <=
          kRowTol<T>);
  }
  // A perturbation far below any visible change in the fit fails the gate.
  Ms[1](2, 1) *= T(1) + T(1e-3);
  CHECK(mttkrp_row_error(X, U, 1, 2, Ms[1]) > kRowTol<T>);
  CHECK(!check_mttkrp_rows(X, U, Ms, 1, static_cast<int>(X.dim(1)) * 8));
}

void test_benchmark_json() {
  std::ifstream f(PERFBENCH_ROOT "/BENCHMARK.json");
  std::stringstream ss;
  ss << f.rdbuf();
  const dmtk::serve::Json j = dmtk::serve::Json::parse(ss.str());
  auto same = [](const dmtk::serve::Json& declared, const MetricList& printed) {
    const auto& arr = declared.as_array();
    if (arr.size() != printed.size()) return false;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (arr[i].find("name")->as_string() != printed[i].first ||
          arr[i].find("unit")->as_string() != printed[i].second) {
        return false;
      }
    }
    return true;
  };
  CHECK(same(*j.find("end_to_end"), end_to_end_metrics()));
  CHECK(same(*j.find("per_layer"), per_layer_metrics()));
}

}  // namespace

int main() {
  test_tail_rule();
  test_failed_frac();
  test_self_time();
  test_row_gate<double>(dmtk::SweepScheme::PerMode, {7, 6, 5});
  test_row_gate<float>(dmtk::SweepScheme::DimTree, {6, 5, 4, 3});
  test_benchmark_json();
  std::fprintf(stderr, "%s: %d failure(s)\n",
               g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
