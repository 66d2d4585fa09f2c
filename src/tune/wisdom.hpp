#pragma once
/// \file wisdom.hpp
/// \brief Persisted per-CPU tuning profiles ("wisdom") the plan layer
/// consults — FFTW's wisdom idea applied to the dmtk plan layer.
///
/// A WisdomProfile records the measured answers to every question the hot
/// path otherwise answers with a hand-picked constant:
///   - which SIMD dispatch level is fastest here (AVX-512 downclocking
///     makes this genuinely per-machine — the dispatch DEFAULT stays at
///     AVX2 and only a profile or DMTK_SIMD raises it),
///   - the GEMM cache blocking (MC, KC, NC),
///   - when the dimension-tree sweep scheme beats per-mode (the "Auto
///     N >= 4" rule becomes a measured min-order) and how many tree
///     levels to build,
///   - which side the two-step MTTKRP should contract first when the
///     shape heuristic is ambiguous,
///   - the dense/sparse density crossover (advisory, surfaced by the CLI).
///
/// Profiles are JSON, keyed on the CPU brand string + SIMD ladder, and
/// written through io/checked_io's CRC32-footer atomic FileWriter — a
/// torn or bit-rotted profile is rejected at load, never half-applied.
/// Loading follows a strict precedence: DMTK_SIMD (the explicit override)
/// always beats the profile's level preference; everything else in the
/// profile applies via the process-global knobs (set_gemm_blocking,
/// set_simd_level) and the consult functions below, which plans call at
/// construction time. When no profile is loaded every consult returns the
/// built-in default, so the system behaves exactly as before tune existed.
///
/// Thread-safety: load/apply/clear take a mutex and are intended for
/// startup (CLI flag parse, server boot) and tests; the consult functions
/// are cheap reads taken at plan-construction time.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "blas/cpu_features.hpp"
#include "blas/gemm_workspace.hpp"
#include "util/common.hpp"

namespace dmtk::tune {

/// Two-step contraction side preference: Heuristic defers to the shape
/// rule (left iff the left co-space is larger); Left/Right force a side
/// whenever the plan's caller left the side at Auto.
enum class TwoStepPref { Heuristic, Left, Right };

[[nodiscard]] std::string_view to_string(TwoStepPref p);
[[nodiscard]] std::optional<TwoStepPref> parse_twostep_pref(
    std::string_view name);

/// Per-level probe measurement (GFLOP/s at the tune probe GEMM shape);
/// recorded so the profile shows WHY a level was chosen, not just which.
struct LevelGflops {
  blas::SimdLevel level = blas::SimdLevel::Scalar;
  double f64_gflops = 0.0;
  double f32_gflops = 0.0;
};

/// Built-in defaults for the tunables (what the consults return with no
/// profile loaded — and what pre-tune dmtk hard-coded).
inline constexpr index_t kDefaultDimtreeMinOrder = 4;
inline constexpr double kDefaultSparseCrossover = 0.10;

struct WisdomProfile {
  // Key: a profile only applies on the machine it was measured on.
  std::string cpu_brand;   ///< /proc/cpuinfo model name (or "unknown")
  std::string cpu_ladder;  ///< to_string(hardware_simd_level()) at tune time

  // Tuned values.
  blas::SimdLevel best_simd_f64 = blas::SimdLevel::Scalar;
  blas::SimdLevel best_simd_f32 = blas::SimdLevel::Scalar;
  blas::GemmBlocking blocking{};
  index_t dimtree_min_order = kDefaultDimtreeMinOrder;
  TwoStepPref twostep = TwoStepPref::Heuristic;
  double sparse_crossover = kDefaultSparseCrossover;

  // Provenance + measurements (informational; info --cpu and BENCH JSON).
  std::string created;  ///< stamp the CLI writes (not read back into logic)
  int tune_threads = 1;
  bool quick = false;
  double default_gflops_f64 = 0.0;  ///< probe GEMM, default level+blocking
  double tuned_gflops_f64 = 0.0;    ///< probe GEMM, tuned level+blocking
  std::vector<LevelGflops> levels;  ///< per-level sweep behind best_simd_*
};

/// This machine's profile key parts.
[[nodiscard]] std::string cpu_brand();
[[nodiscard]] std::string cpu_ladder();

/// Does `p` apply to this machine? On false, `why` (if non-null) names the
/// mismatched key part.
[[nodiscard]] bool profile_matches_cpu(const WisdomProfile& p,
                                       std::string* why = nullptr);

// --- serialization -------------------------------------------------------

/// One-line JSON (serve::Json dump: sorted keys, %.17g doubles).
[[nodiscard]] std::string profile_to_json(const WisdomProfile& p);
/// Strict parse; throws std::runtime_error (with a reason) on malformed
/// or field-invalid input. SimdLevel names unknown to this build reject.
[[nodiscard]] WisdomProfile profile_from_json(std::string_view text);

/// Atomic CRC32-checksummed write (FileWriter Footer::Crc32); throws
/// io::IoError on failure.
void save_wisdom(const std::string& path, const WisdomProfile& p);
/// Read + checksum-verify + parse; throws io::IoError on IO/CRC failure
/// and std::runtime_error on malformed content.
[[nodiscard]] WisdomProfile read_wisdom_file(const std::string& path);

// --- process-global registry ---------------------------------------------

/// Read, validate against this CPU, and apply `path`. Returns false (with
/// a reason in `error`) on IO/CRC/parse failure or CPU-key mismatch —
/// nothing is applied in that case.
bool load_wisdom(const std::string& path, std::string* error = nullptr);

/// Install `p` as the active profile: sets the GEMM blocking, and (unless
/// DMTK_SIMD is set — the explicit override wins) the dispatch level to
/// p.best_simd_f64. `source` is recorded for reporting.
void apply_wisdom(const WisdomProfile& p, const std::string& source = "");

/// Drop the active profile and restore built-in defaults (default
/// blocking; default_simd_level() unless DMTK_SIMD is set).
void clear_wisdom();

/// A SNAPSHOT of the active profile, or nullopt. First call performs the
/// DMTK_WISDOM autoload (a failed autoload warns on stderr once and is
/// ignored — env autoload is lenient where the explicit --wisdom flag is
/// strict).
///
/// This returns by value on purpose. The previous signature returned
/// `const WisdomProfile*` into the registry's mutex-guarded storage, a
/// pointer that outlived the lock — a concurrent clear_wisdom() or
/// load_wisdom() destroyed/overwrote the pointee under the caller
/// (use-after-free). `-Wthread-safety` flags exactly this escape once the
/// storage is DMTK_GUARDED_BY the registry mutex; the value snapshot is
/// the fix, not a suppression. Callers needing only one field should use
/// the consult functions below, which read under the lock without copying.
[[nodiscard]] std::optional<WisdomProfile> wisdom();
[[nodiscard]] bool wisdom_loaded();
/// Path the active profile came from ("" when none or applied in-memory).
[[nodiscard]] std::string wisdom_source();

// --- plan-time consults (defaults when no profile) ------------------------

/// Dense Auto picks DimTree at order >= this (default 4).
[[nodiscard]] index_t auto_dimtree_min_order();
/// Two-step side preference for plans whose caller left side at Auto.
[[nodiscard]] TwoStepPref wisdom_twostep();
/// Density above which dense decomposition is expected to win (advisory).
[[nodiscard]] double wisdom_sparse_crossover();

}  // namespace dmtk::tune
