#!/usr/bin/env python3
"""Build and run one dmtk benchmark run.

    python3 perfbench/run.py --workload cube3-f64|fmri4-f32|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a dmtk checkout. The first run configures and builds
the dmtk library and the benchmark program into .bench_build/ (later runs
rebuild only what changed); generated inputs go to .bench_data/, traces to
.bench_out/. The --seconds budget starts when this script starts: the
program gets what is left after start-up and the build, and runs its
minimum work when nothing is. Every step logs its exit status and seconds
to stderr. The benchmark program's last stdout line is the result; this
script's exit status is the program's (0 = every correctness check passed).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import time

START = time.monotonic()  # the run's --seconds budget starts here
ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run must end within 180 s; stop the program before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def step(name, cmd, timeout, capture=False, env=None, log_file=None):
    """Run one step to completion; log its status and seconds."""
    t0 = time.monotonic()
    log(f"step {name}: start")
    try:
        if log_file is not None:
            with open(log_file, "w") as f:
                proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                                      stdout=f, stderr=subprocess.STDOUT)
        else:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                                  stdout=subprocess.PIPE if capture else None,
                                  text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"step {name}: TIMEOUT after {time.monotonic() - t0:.1f} s")
        sys.exit(124)
    except OSError as e:
        log(f"step {name}: cannot start ({e})")
        sys.exit(127)
    status = "ok" if proc.returncode == 0 else "FAILED"
    log(f"step {name}: {status} (exit {proc.returncode}) "
        f"{time.monotonic() - t0:.1f} s")
    if proc.returncode != 0 and log_file is not None:
        tail = pathlib.Path(log_file).read_text(errors="replace").splitlines()
        for line in tail[-40:]:
            print(line, file=sys.stderr)
    return proc


def clean_env():
    """The inherited environment minus everything dmtk or OpenMP tunes on:
    no stored wisdom, forced SIMD level, armed fault site or OMP_ setting."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DMTK_SIMD", "DMTK_WISDOM", "DMTK_FAULTS")
           and not k.startswith("OMP_")}
    return env


def source_id():
    """The commit when this is a git work tree, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "commit " + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "source digest " + h.hexdigest()[:16]


def build(env):
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        # A cache from another checkout path cannot be reused.
        home = [l for l in cache.read_text(errors="replace").splitlines()
                if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or pathlib.Path(home[0].split("=", 1)[1]) != ROOT / "perfbench":
            log("build cache belongs to another checkout; reconfiguring")
            cache.unlink()
    BUILD.mkdir(parents=True, exist_ok=True)
    if not cache.exists():
        proc = step("configure", ["cmake", "-S", "perfbench", "-B", str(BUILD),
                                  "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S, env=env, log_file=BUILD / "configure.log")
        if proc.returncode != 0:
            sys.exit(4)
    jobs = str(os.cpu_count() or 1)
    proc = step("build", ["cmake", "--build", str(BUILD), "--target",
                          "perfbench", "-j", jobs],
                BUILD_TIMEOUT_S, env=env, log_file=BUILD / "build.log")
    if proc.returncode != 0:
        sys.exit(4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cube3-f64", "fmri4-f32", "serve-mix"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"step sources: FAILED: no dmtk sources (CMakeLists.txt, src/) "
            f"under {ROOT}")
        sys.exit(2)
    env = clean_env()
    log(f"{source_id()}, python {sys.version.split()[0]}")
    build(env)
    left = max(0.0, args.seconds - (time.monotonic() - START))
    log(f"{left:.2f} s of the {args.seconds} s budget left for the program")
    proc = step(f"run {args.workload}",
                [str(BUILD / "perfbench"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", f"{left:.3f}",
                 "--trace", args.trace],
                RUN_TIMEOUT_S, capture=True, env=env)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
