#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace fs = std::filesystem;

template <typename T>
dmtk::TensorT<T> planted_tensor(const std::vector<index_t>& dims,
                                index_t rank, double noise,
                                std::uint64_t seed) {
  dmtk::Rng rng(seed);
  const dmtk::Ktensor truth = dmtk::Ktensor::random(dims, rank, rng);
  dmtk::Tensor X = truth.full(kThreads);
  const double sigma =
      noise * X.norm(kThreads) / std::sqrt(static_cast<double>(X.numel()));
  // Noise in fixed chunks, each from its own stream: the tensor does not
  // depend on the thread count.
  constexpr index_t kChunk = index_t{1} << 20;
  const index_t chunks = (X.numel() + kChunk - 1) / kChunk;
  const std::uint64_t noise_seed = rng.next_u64();
#pragma omp parallel for num_threads(kThreads) schedule(static)
  for (index_t k = 0; k < chunks; ++k) {
    dmtk::Rng r(noise_seed ^ (0x9e3779b97f4a7c15ULL *
                              static_cast<std::uint64_t>(k + 1)));
    const index_t end = std::min(X.numel(), (k + 1) * kChunk);
    for (index_t l = k * kChunk; l < end; ++l) X[l] += sigma * r.normal();
  }
  if constexpr (std::is_same_v<T, double>) {
    return X;
  } else {
    return dmtk::tensor_cast<T>(X);
  }
}

template dmtk::Tensor planted_tensor<double>(const std::vector<index_t>&,
                                             index_t, double, std::uint64_t);
template dmtk::TensorF planted_tensor<float>(const std::vector<index_t>&,
                                             index_t, double, std::uint64_t);

fs::path input_dir(const Run& run) {
  const fs::path base =
      fs::path(".bench_data") / (run.workload + (run.toy ? "-toy" : ""));
  const std::string mine = "seed-" + std::to_string(run.seed);
  fs::create_directories(base);
  for (const fs::directory_entry& e : fs::directory_iterator(base)) {
    if (e.path().filename() != mine) {
      std::fprintf(stderr, "[perfbench] evicting inputs %s\n",
                   e.path().string().c_str());
      fs::remove_all(e.path());
    }
  }
  fs::create_directories(base / mine);
  return base / mine;
}

namespace {

/// A "<key>:  <n> kB" line of /proc/self/status, in MB.
double status_mb(const std::string& key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) * 1024.0 / 1e6;
    }
  }
  throw std::runtime_error("no " + key + " in /proc/self/status");
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM"); }

void reset_peak_rss() {
  // "5" resets the high-water mark VmHWM to the current RSS (proc(5)).
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) {
    std::fprintf(stderr,
                 "[perfbench] cannot reset VmHWM; peak_rss_mb includes "
                 "input generation\n");
  }
  std::fprintf(stderr, "[perfbench] RSS %.1f MB after input generation\n",
               status_mb("VmRSS"));
}


}  // namespace perfbench
