#!/usr/bin/env python3
"""Benchmark of the rons package: one workload per invocation.

    python3 perfbench/run.py --workload {leapfrog,catalog-1d,rhs-sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  All load comes from one worker process at a time.  With --trace 0
the worker's set-up is timed in SETUP_SAMPLES fresh interpreters (the
median is `setup_s`), the last of which goes on to run the passes and
reports `run_s`, `rhs_evals` and `peak_rss_mb`.  With --trace 1 a single
worker runs the same passes with spans at every layer boundary and reports
the per-layer split.  The last line of standard output is the result as
one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
# BLAS threads of the worker: at most the CPUs this process may use, and
# at most 2 (the matrices are n <= 16 wide)
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


class WorkerFailed(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _start_worker(args, out_dir: Path, setup_only: bool):
    """Start one fresh interpreter; return it with its set-up time, i.e.
    the wall time from starting it until it reports READY."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc, args.seconds)
        raise WorkerFailed(f"worker set-up failed (exit code {proc.returncode})")
    return proc, setup_s


def _child_timeout(seconds: float) -> float:
    """Seconds a worker may take: generous, so that a slow pass is measured
    rather than cut; a worker also ends on its own when run.py is gone."""
    return 10.0 * seconds + 300.0


def _finish(proc, seconds: float) -> str:
    try:
        out, _ = proc.communicate(timeout=_child_timeout(seconds))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker timed out") from None
    return out


def measure(args) -> dict:
    out_dir = ROOT / "perfbench-out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    setup_times = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = _start_worker(args, out_dir, setup_only=True)
            setup_times.append(setup_s)
            _finish(proc, args.seconds)
            if proc.returncode != 0:
                raise WorkerFailed(f"set-up worker exited with {proc.returncode}")
    proc, setup_s = _start_worker(args, out_dir, setup_only=False)
    setup_times.append(setup_s)
    out = _finish(proc, args.seconds)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        result["setup_samples_s"] = setup_times
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("leapfrog", "catalog-1d", "rhs-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rons" / "__init__.py").is_file():
        print(f"perfbench: no rons sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = result.pop("passes")
    pass_s = result.pop("pass_s")
    setup_samples = result.pop("setup_samples_s", None)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"correct {result['correct']}")
    print(f"  passes {passes}: " + " ".join(f"{t:.4f}" for t in pass_s) + " s")
    if setup_samples:
        print("  set-up samples: " + " ".join(f"{t:.4f}" for t in setup_samples) + " s")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
