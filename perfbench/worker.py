"""One fresh interpreter of the benchmark (started by run.py).

Builds the workload, prints READY (the parent times set-up up to this
line), and with --setup-only exits there.  Otherwise it runs one untimed
warm-up pass, then timed passes until their total reaches --seconds, checks
each pass's outputs outside the timed region, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS  # imports rons: part of the timed set-up

import spans


def _exit_with_parent():
    """End this worker once run.py is gone, so that no worker outlives a
    benchmark run that was stopped from outside."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    threading.Thread(target=_exit_with_parent, daemon=True).start()

    workload = WORKLOADS[args.workload](args.out_dir, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    workload.warmup()
    if args.trace:
        recorder = spans.Tracer()
    else:
        recorder = spans.CallCounter()
        if not recorder.found:
            print("perfbench: no binding of rons.engine.assemble to count", file=sys.stderr)
            return 1

    pass_times, span_ranges, pass_bytes, assembles = [], [], [], []
    attempted = failed = wrong = 0
    index = 0
    while not pass_times or sum(pass_times) < args.seconds:
        index += 1
        first_span = len(recorder) if args.trace else 0
        calls_before = 0 if args.trace else recorder.calls
        elapsed, outcome = workload.run_pass(index)
        pass_times.append(elapsed)
        if args.trace:
            span_ranges.append((first_span, len(recorder)))
        else:
            assembles.append(recorder.calls - calls_before)
        pass_bytes.append(workload.bytes_written())
        n_failed, n_wrong = workload.check_pass(outcome)
        attempted += workload.ops_per_pass
        failed += n_failed
        wrong += n_wrong
    recorder.uninstall()

    if args.trace:
        metrics = spans.layer_metrics(recorder, span_ranges, pass_bytes)
    else:
        metrics = {
            "run_s": (statistics.median(pass_times), "s"),
            "rhs_evals": (statistics.median_low(assembles), "count"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": len(pass_times),
        "pass_s": pass_times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
