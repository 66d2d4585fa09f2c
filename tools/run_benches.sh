#!/usr/bin/env bash
# Run the perf-trajectory benches and write BENCH_pr9.json at the repo root.
#
# usage: tools/run_benches.sh [build_dir] [out_json] [scale]
#   build_dir  CMake build tree with the bench binaries (default: build)
#   out_json   output JSON path (default: BENCH_pr9.json)
#   scale      --scale for the figure benches (default: 0.001)
#
# The GEMM roofline (every level the host supports — on AVX-512 hardware
# that is the scalar/avx2-4x8/avx2-8x8/avx512-8x16/avx512-16x16 ladder —
# with the equivalence check armed in both precisions) emits the headline
# per-level GFLOP/s record up to 1024^3; `dmtk tune` contributes its full
# report, so the tuned-vs-default blocking deltas and the per-level probe
# travel in the same JSON, as does the density ablation with its
# fp32-storage CSF column (the mixed-precision measurement of PR 9). The
# fig5 MTTKRP scaling log and the dimension-tree ablation JSON of PR 3
# land in bench_logs/. Subsequent PRs compare their BENCH_*.json against
# this one.

set -euo pipefail

build_dir="${1:-build}"
out_json="${2:-BENCH_pr9.json}"
scale="${3:-0.001}"

# Drop the conda activation warning some login shells emit on stderr; it
# would otherwise interleave with the tee'd bench tables and logs.
denoise() { sed '/^WARNING conda/d'; }

if [[ ! -x "${build_dir}/bench_gemm_roofline" ]]; then
  echo "error: ${build_dir}/bench_gemm_roofline not found — build first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

log_dir="$(dirname "${out_json}")/bench_logs"
mkdir -p "${log_dir}"

echo "== gemm roofline (all supported levels, equivalence check armed) =="
"${build_dir}/bench_gemm_roofline" --sizes 256,512,1024 --threads 1 \
  --trials 3 --check --json "${log_dir}/gemm_roofline.json" \
  | tee "${log_dir}/gemm_roofline.log"

echo "== dmtk tune (full sweep -> wisdom profile + report) =="
# The tuner's human-readable log precedes a single-line JSON report on
# stdout; peel the report off for the merge below.
"${build_dir}/dmtk" tune --out "${log_dir}/wisdom.json" --json 2>&1 \
  | denoise | tee "${log_dir}/tune.log"
sed -n '/^{/p' "${log_dir}/tune.log" > "${log_dir}/tune_report.json"

echo "== fig5 (MTTKRP scaling, f64 vs f32) =="
"${build_dir}/bench_fig5_scaling" --scale "${scale}" --threads 1,2,4 \
  --trials 3 --json "${log_dir}/fig5.json" | tee "${log_dir}/fig5.log"

echo "== density ablation (dense vs CSF f64/f32, plan layer) =="
"${build_dir}/bench_ablation_density" --scale "${scale}" --threads 1 \
  --trials 3 --check --json "${log_dir}/ablation_density.json" \
  | tee "${log_dir}/ablation_density.log"

# The headline record: the per-level roofline (avx512 rows included on
# AVX-512 hardware), the autotuner's report with its tuned-vs-default
# blocking numbers, the fig5 sweep timings, and the density ablation with
# its fp32-storage CSF column, merged into one object.
{
  echo '{'
  echo '  "bench": "pr9_precision_matrix",'
  echo '  "roofline":'
  sed 's/^/  /' "${log_dir}/gemm_roofline.json"
  echo '  ,'
  echo '  "tune":'
  sed 's/^/  /' "${log_dir}/tune_report.json"
  echo '  ,'
  echo '  "fig5_sweep":'
  sed 's/^/  /' "${log_dir}/fig5.json"
  echo '  ,'
  echo '  "density_ablation":'
  sed 's/^/  /' "${log_dir}/ablation_density.json"
  echo '}'
} > "${out_json}"

echo "== fig6 (MTTKRP breakdown) =="
"${build_dir}/bench_fig6_breakdown" --scale "${scale}" --trials 3 \
  | tee "${log_dir}/fig6.log"

echo "== dimension-tree sweep ablation =="
"${build_dir}/bench_ablation_dimtree" --scale "${scale}" --threads 1 \
  --trials 3 --json "${log_dir}/ablation_dimtree.json" \
  | tee "${log_dir}/ablation_dimtree.log"

echo "== serve (warm plan cache vs cold start, over a Unix socket) =="
serve_json="$(dirname "${out_json}")/BENCH_serve.json"
"${build_dir}/bench_serve" --scale "${scale}" --trials 3 \
  --json "${serve_json}" 2>&1 | denoise | tee "${log_dir}/serve.log"

echo
echo "wrote ${out_json} and ${serve_json} (logs in ${log_dir}/)"
