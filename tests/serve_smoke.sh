#!/usr/bin/env bash
# End-to-end serve round trip, registered as a ctest (see CMakeLists.txt).
#
#   usage: serve_smoke.sh <path-to-dmtk-binary>
#
# Starts `dmtk serve` on a temp-dir Unix socket, drives it through `dmtk
# client` — generate -> info -> decompose (both precisions, warm repeat,
# fp32 acc64 against the batch CLI) -> mttkrp -> stats -> shutdown — and requires a clean server exit. The
# sed filter drops the conda activation warning some login shells print
# on stderr, which would otherwise pollute captured JSON checks.

set -u
dmtk="$1"
work="$(mktemp -d /tmp/dmtk_smoke_XXXXXX)"
sock="${work}/dmtk.sock"
fails=0

cleanup() {
  if [[ -n "${serve_pid:-}" ]] && kill -0 "${serve_pid}" 2> /dev/null; then
    kill "${serve_pid}" 2> /dev/null
    wait "${serve_pid}" 2> /dev/null
  fi
  rm -rf "${work}"
}
trap cleanup EXIT

denoise() { sed '/^WARNING conda/d'; }

# check <desc> <expected-exit-code> <grep-pattern> <cmd...>
# Runs the command exactly once (requests are stateful — a repeat would
# re-warm caches or double-send shutdown), comparing both the exit code
# and the denoised output.
check() {
  local desc="$1"
  local expect_code="$2"
  local pattern="$3"
  shift 3
  "$@" > "${work}/out.raw" 2>&1
  local code=$?
  local out
  out="$(denoise < "${work}/out.raw")"
  if [[ ${code} -ne ${expect_code} ]]; then
    echo "FAIL (${desc}): expected exit ${expect_code}, got ${code}"
    echo "  cmd: $*"
    echo "  out: ${out}"
    fails=$((fails + 1))
    return
  fi
  if [[ -n "${pattern}" ]] && ! grep -q "${pattern}" <<< "${out}"; then
    echo "FAIL (${desc}): output does not match '${pattern}'"
    echo "  out: ${out}"
    fails=$((fails + 1))
  fi
}

"${dmtk}" generate --dims 16x14x12 --rank 3 --seed 7 \
  --out "${work}/cube.dten" > /dev/null

"${dmtk}" serve --socket "${sock}" --workers 1 --threads 1 \
  > "${work}/serve.log" 2>&1 &
serve_pid=$!

# Wait for the listening line (the server prints + flushes it when ready).
for _ in $(seq 1 100); do
  grep -q "listening" "${work}/serve.log" 2> /dev/null && break
  sleep 0.05
done
if ! grep -q "listening" "${work}/serve.log"; then
  echo "FAIL: server never reported listening"
  cat "${work}/serve.log"
  exit 1
fi

check "info" 0 '"kind":"dense"' \
  "${dmtk}" client --socket "${sock}" info "${work}/cube.dten"
check "decompose f64 (cold cache)" 0 '"precision":"double"' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --no-inline
check "decompose f64 (warm repeat)" 0 '"plan":"hit"' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --no-inline
check "decompose f32" 0 '"precision":"float"' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --precision float --no-inline
# Mixed precision runs through the cached fp32 plan, and the served model
# file is byte-identical to the batch CLI's for the same run.
check "decompose f32 acc64" 0 '"precision":"float"' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --tol 0 --seed 9 --precision float --method acc64 \
  --out "${work}/served_acc64.dktn" --no-inline
"${dmtk}" decompose "${work}/cube.dten" --rank 3 --iters 5 --tol 0 --seed 9 \
  --threads 1 --precision float --method acc64 \
  --out "${work}/cli_acc64.dktn" > /dev/null 2>&1
cmp -s "${work}/served_acc64.dktn" "${work}/cli_acc64.dktn" \
  || { echo "FAIL: served acc64 model differs from the CLI's"; fails=$((fails + 1)); }
# ... and a double request cannot ask for it: it already sums in fp64.
check "decompose f64 acc64 is invalid" 3 'invalid_request.*method' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --method acc64 --no-inline
check "decompose to file" 0 '"ok":true' \
  "${dmtk}" client --socket "${sock}" decompose "${work}/cube.dten" \
  --rank 3 --iters 5 --out "${work}/model.dktn" --no-inline
[[ -f "${work}/model.dktn" ]] \
  || { echo "FAIL: served model file missing"; fails=$((fails + 1)); }
check "mttkrp" 0 '"type":"mttkrp"' \
  "${dmtk}" client --socket "${sock}" mttkrp "${work}/cube.dten" --mode 1 \
  --rank 4
check "stats" 0 '"hits":' \
  "${dmtk}" client --socket "${sock}" stats
check "bad request exits 3" 3 '"code":"invalid_request"' \
  "${dmtk}" client --socket "${sock}" --json '{"type":"nope"}'

# Shutdown must ack, and the server process must then exit cleanly.
check "shutdown" 0 '"type":"shutdown"' \
  "${dmtk}" client --socket "${sock}" shutdown
server_exit=0
for _ in $(seq 1 100); do
  kill -0 "${serve_pid}" 2> /dev/null || break
  sleep 0.05
done
if kill -0 "${serve_pid}" 2> /dev/null; then
  echo "FAIL: server still running after shutdown request"
  fails=$((fails + 1))
else
  wait "${serve_pid}"
  server_exit=$?
  if [[ ${server_exit} -ne 0 ]]; then
    echo "FAIL: server exited with ${server_exit}"
    cat "${work}/serve.log"
    fails=$((fails + 1))
  fi
fi
serve_pid=""

if [[ ${fails} -ne 0 ]]; then
  echo "${fails} serve smoke check(s) failed"
  exit 1
fi
echo "serve smoke OK"
