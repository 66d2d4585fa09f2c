#pragma once
/// \file bench_common.hpp
/// \brief Shared harness for the figure-reproduction benchmarks: command
/// line parsing, size scaling relative to the paper's workloads, and
/// aligned table printing.
///
/// Every bench accepts:
///   --scale <f>     fraction of the paper's tensor sizes (default small
///                   enough for a laptop/CI box; 1.0 = paper size)
///   --threads <csv> thread counts to sweep (default "1,2,4")
///   --trials <n>    timing repetitions; medians are reported
///
/// NOTE on hardware: the paper sweeps 1-12 threads on a 12-core Xeon. A
/// swept thread count above the machine's hardware threads still runs
/// (oversubscribed), and the banner says so; those points show only the
/// sequential relationships.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "util/common.hpp"
#include "util/env.hpp"

namespace dmtk::bench {

struct Args {
  double scale = 0.01;              ///< fraction of the paper's entry count
  std::vector<int> threads{1, 2, 4};
  int trials = 3;
  /// Optional --method override (parse_mttkrp_method names). Benches that
  /// sweep several kernels restrict themselves to this one when set.
  MttkrpMethod method = MttkrpMethod::Auto;
  bool method_set = false;

  /// True when the bench should run `m` given the --method restriction
  /// (--method auto keeps the full sweep).
  [[nodiscard]] bool runs(MttkrpMethod m) const {
    return !method_set || method == MttkrpMethod::Auto || method == m;
  }

  static Args parse(int argc, char** argv, double default_scale = 0.01) {
    Args a;
    a.scale = default_scale;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        return (i + 1 < argc) ? argv[++i] : "";
      };
      if (arg == "--scale") {
        a.scale = std::atof(next());
      } else if (arg == "--threads") {
        a.threads.clear();
        const std::string csv = next();
        std::size_t pos = 0;
        while (pos < csv.size()) {
          std::size_t comma = csv.find(',', pos);
          if (comma == std::string::npos) comma = csv.size();
          a.threads.push_back(std::atoi(csv.substr(pos, comma - pos).c_str()));
          pos = comma + 1;
        }
      } else if (arg == "--trials") {
        a.trials = std::atoi(next());
      } else if (arg == "--method") {
        const char* name = next();
        const auto m = parse_mttkrp_method(name);
        if (!m) {
          std::fprintf(stderr, "unknown MTTKRP method '%s'\n", name);
          std::exit(1);
        }
        a.method = *m;
        a.method_set = true;
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "usage: %s [--scale f] [--threads csv] [--trials n] "
            "[--method m]\n"
            "  --scale   fraction of the paper's tensor size (1.0 = paper)\n"
            "  --threads comma-separated thread counts to sweep\n"
            "  --trials  timing repetitions (median reported)\n"
            "  --method  restrict to one MTTKRP kernel (reference, reorder,\n"
            "            1-step-seq, 1-step, 2-step, auto, acc64)\n",
            argv[0]);
        std::exit(0);
      }
    }
    if (a.threads.empty()) a.threads.push_back(1);
    if (a.trials < 1) a.trials = 1;
    return a;
  }
};

/// The paper's synthetic tensors hold ~750M entries; dimension of an N-way
/// cube holding `scale` of that.
inline index_t cube_dim(index_t order, double scale) {
  const double target = 750e6 * scale;
  return std::max<index_t>(
      4, static_cast<index_t>(std::llround(std::pow(
             target, 1.0 / static_cast<double>(order)))));
}

/// Print a header banner with the environment facts that matter.
inline void banner(const char* title, const Args& a) {
  std::printf("=== %s ===\n", title);
  std::printf("scale=%.4g  trials=%d  hardware_threads=%d  threads-swept:",
              a.scale, a.trials, hardware_threads());
  for (int t : a.threads) std::printf(" %d", t);
  std::printf("\n");
  int most = 0;
  for (int t : a.threads) most = std::max(most, t);
  if (most > hardware_threads()) {
    std::printf(
        "note: %d thread(s) swept on %d hardware thread(s): those points are\n"
        "      oversubscribed and show only sequential relationships.\n",
        most, hardware_threads());
  }
}

/// Simple fixed-width row printers so the output reads like the paper's
/// tables.
inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace dmtk::bench
