#!/usr/bin/env python3
"""Spread check: compare two sets of benchmark runs.

    python3 perfbench/spread.py
        Run two sets of 10 untraced runs of every workload in BENCHMARK.json
        at its run_seconds (set B on fresh seeds, interleaved with set A),
        save them to .bench_out/spread-A.jsonl and spread-B.jsonl, then
        compare.
    python3 perfbench/spread.py A.jsonl B.jsonl
        Compare two saved sets.

For every workload x end-to-end metric it prints each set's median and
quartiles (statistics.quantiles, n=4), the spread (IQR / median) against
the metric's bound from BENCHMARK.json, and a verdict for B against A:
improved (B wins at least 9 of 10 pairs and the medians differ by more
than A's IQR), regressed (B's median worse by more than the bound),
unresolved (a spread wider than the bound, unless every B run beats every
A run), or within bound. It ends with the longest run's wall time.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10  # runs per set and workload


def steal_seconds():
    """CPU time the hypervisor gave to others (the `steal` field of the
    `cpu` line of /proc/stat), summed over CPUs; 0 where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_once(workload, seed):
    steal0 = steal_seconds()
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds",
         str(BENCH["run_seconds"]), "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": wall, "steal_s": steal_seconds() - steal0,
            "result": result}


def collect():
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    paths = [out / "spread-A.jsonl", out / "spread-B.jsonl"]
    files = [open(p, "w") for p in paths]
    for w in (w["name"] for w in BENCH["workloads"]):
        for i in range(RUNS):
            # Alternate which set runs first; set B uses seeds A never saw.
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                rec = run_once(w, 1000 * (s + 1) + i)
                print(f"{w} set {'AB'[s]} seed {rec['seed']}: exit "
                      f"{rec['exit']}, {rec['wall_s']:.1f} s, host steal "
                      f"{rec['steal_s']:.1f} CPU-s", file=sys.stderr,
                      flush=True)
                files[s].write(json.dumps(rec) + "\n")
                files[s].flush()
    for f in files:
        f.close()
    return paths


def load(path):
    recs = [json.loads(l) for l in pathlib.Path(path).read_text().splitlines()
            if l.strip()]
    by = {}
    for r in recs:
        by.setdefault(r["workload"], []).append(r)
    return by


def quart(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(path_a, path_b):
    a_all, b_all = load(path_a), load(path_b)
    ok = True
    longest = 0.0
    print(f"{'workload':10s} {'metric':12s} {'A median [Q1, Q3]':>34s} "
          f"{'B median [Q1, Q3]':>34s} {'spreadA':>8s} {'spreadB':>8s} "
          f"{'bound':>6s}  verdict")
    for w in sorted(set(a_all) | set(b_all)):
        ra, rb = a_all.get(w, []), b_all.get(w, [])
        for r in ra + rb:
            longest = max(longest, r["wall_s"])
            if r["exit"] != 0 or not r["result"] or not r["result"]["correct"]:
                ok = False
                print(f"{w}: run seed {r['seed']} failed (exit {r['exit']})")
        for m in BENCH["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = [r["result"]["metrics"][name]["value"] for r in ra
                  if r["result"]]
            vb = [r["result"]["metrics"][name]["value"] for r in rb
                  if r["result"]]
            if len(va) < 2 or len(vb) < 2:
                print(f"{w:10s} {name:12s} too few runs")
                ok = False
                continue
            qa, qb = quart(va), quart(vb)
            sa = (qa[2] - qa[0]) / qa[1]
            sb = (qb[2] - qb[0]) / qb[1]
            worse = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            wins = sum(better(y, x) for x, y in zip(va, vb))
            if all(better(y, x) for x in va for y in vb):
                verdict = "improved"
            elif max(sa, sb) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif (wins >= 0.9 * min(len(va), len(vb))
                  and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "improved"
            else:
                verdict = "within bound"
            # The acceptance rule: every spread within its bound, and no
            # median worse than the bound.
            if max(sa, sb) > bound or worse > bound:
                ok = False
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            print(f"{w:10s} {name:12s} {fmt(qa):>34s} {fmt(qb):>34s} "
                  f"{sa:8.4f} {sb:8.4f} {bound:6.3f}  {verdict}")
    print(f"longest run: {longest:.1f} s (run_seconds "
          f"{BENCH['run_seconds']})")
    print("spread check:", "PASS" if ok else "FAIL")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="*", help="two saved .jsonl sets")
    args = ap.parse_args()
    if len(args.sets) == 2:
        paths = args.sets
    elif not args.sets:
        paths = collect()
    else:
        ap.error("give two saved sets, or none to collect them")
    sys.exit(0 if compare(*paths) else 1)


if __name__ == "__main__":
    main()
