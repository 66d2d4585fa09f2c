/// perfbench: one run of one dmtk benchmark workload.
///
///   perfbench --workload cube3-f64|fmri4-f32|serve-mix --seed N
///             --seconds S --trace 0|1 [--toy]
///
/// Untraced runs print the end-to-end metrics, traced runs the per-layer
/// metrics, each as the last stdout line: {"correct", "attempted",
/// "failed", "metrics"}. Traced runs also write a Chrome trace to
/// .bench_out/ and print each layer's self time to stderr. --toy shrinks
/// every shape for the benchmark's own tests. Exit status: 0 when every
/// check passed, 1 when a correctness check failed (the result line is
/// still printed), 2 on bad arguments or environment, 3 when a step threw
/// (no result line).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

extern char** environ;

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cube3-f64|fmri4-f32|serve-mix --seed N --seconds S "
               "--trace 0|1 [--toy]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') usage(what);
  return v;
}

Run parse(int argc, char** argv) {
  Run run;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--toy") {
      run.toy = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      run.workload = v;
      have[0] = true;
    } else if (a == "--seed") {
      run.seed = parse_u64(v, "bad --seed");
      have[1] = true;
    } else if (a == "--seconds") {
      char* end = nullptr;
      run.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(run.seconds >= 0.0)) {
        usage("--seconds takes a number >= 0");
      }
      have[2] = true;
    } else if (a == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      run.traced = t == "1";
      have[3] = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  for (bool h : have) {
    if (!h) usage("--workload, --seed, --seconds and --trace are required");
  }
  return run;
}

/// The library reads these at run time; a benchmark run pins them unset,
/// so no stored wisdom, forced SIMD level or armed fault site applies.
void require_clean_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string key = kv.substr(0, kv.find('='));
    if (key == "DMTK_SIMD" || key == "DMTK_WISDOM" || key == "DMTK_FAULTS" ||
        key.rfind("OMP_", 0) == 0) {
      std::fprintf(stderr, "perfbench: %s is set; unset it for a run\n",
                   key.c_str());
      std::exit(2);
    }
  }
}

void header(const Run& run) {
  std::fprintf(stderr,
               "[perfbench] workload %s seed %llu seconds %g trace %d%s\n"
               "[perfbench] nproc %d, simd %s, llc %zu B, stream roof buffer "
               "%zu B, gemm roof %lld^2, threads %d\n"
               "[perfbench] compiler %s\n",
               run.workload.c_str(), static_cast<unsigned long long>(run.seed),
               run.seconds, run.traced ? 1 : 0, run.toy ? " (toy)" : "",
               dmtk::hardware_threads(),
               std::string(dmtk::blas::to_string(dmtk::blas::simd_level()))
                   .c_str(),
               stream_roof_bytes() / 4, stream_roof_bytes(),
               static_cast<long long>(kGemmRoofN), kThreads, __VERSION__);
}

void print_layers() {
  for (const auto& [layer, s] : layer_self_seconds(trace().spans())) {
    std::fprintf(stderr, "[perfbench] self time %-8s %10.6f s\n",
                 layer.c_str(), s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Run run = parse(argc, argv);
  require_clean_env();
  header(run);
  trace().enable(run.traced);
  Outcome out;
  try {
    if (run.workload == "cube3-f64") {
      out = run_cube3(run);
    } else if (run.workload == "fmri4-f32") {
      out = run_fmri4(run);
    } else if (run.workload == "serve-mix") {
      out = run_serve_mix(run);
    } else {
      usage(("unknown workload " + run.workload).c_str());
    }
    if (run.traced) {
      const std::filesystem::path path =
          std::filesystem::path(".bench_out") /
          ("trace-" + run.workload + "-seed" + std::to_string(run.seed) +
           ".json");
      std::filesystem::create_directories(path.parent_path());
      trace().write_chrome(path);
      std::fprintf(stderr, "[perfbench] wrote %s\n", path.string().c_str());
      print_layers();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] run failed: %s\n", e.what());
    return 3;
  }

  dmtk::serve::Json metrics;
  for (const auto& [name, unit] :
       run.traced ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = out.metrics.find(name);
    double value = 0.0;
    if (it != out.metrics.end()) {
      value = it->second.value;
    } else {
      // Layers this workload does not pass through read 0.
      std::fprintf(stderr, "[perfbench] %s: not on this workload's path\n",
                   name.c_str());
    }
    dmtk::serve::Json m;
    m.set("value", dmtk::serve::Json(value));
    m.set("unit", dmtk::serve::Json(unit));
    metrics.set(name, std::move(m));
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  dmtk::serve::Json result;
  result.set("correct", dmtk::serve::Json(correct));
  result.set("attempted", dmtk::serve::Json(out.attempted));
  result.set("failed", dmtk::serve::Json(out.failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
