#!/usr/bin/env python3
"""Two interleaved sets of benchmark runs, summarized against the bounds.

    python3 perfbench/sets.py

Both sets run this checkout for the run length in BENCHMARK.json, which
measures the benchmark's own run-to-run spread.  Round i runs every
workload once per set with seeds 101 + i (A) and 201 + i (B), alternating
which set goes first, because the machine's speed drifts on a scale of
minutes.  Then TRACED traced runs per workload follow.
Prints markdown tables: per workload and end-to-end metric the median and
quartiles of each set, the spread (q3 - q1) / median, and B's median over
A's; then the traced per-layer split with the traced run_s per workload.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("leapfrog", "catalog-1d", "rhs-sweep")
RUNS = 10      # untraced runs per set and workload
TRACED = 2     # traced runs per workload


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # "  passes N: t1 t2 ... s" is the second line of the report
    result["pass_s"] = [float(t) for t in lines[1].split(":")[1].split()[:-1]]
    return result


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def end_to_end_table(records, bench) -> list[str]:
    out = [
        "| workload | metric | bound | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B/A - 1 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload in WORKLOADS:
        for metric in bench["end_to_end"]:
            name, cells = metric["name"], []
            medians = {}
            for s in "AB":
                values = [r["metrics"][name]["value"] for r in records[s][workload]]
                med, q1, q3, sp = spread(values)
                medians[s] = med
                cells += [f"{med:.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}", f"{sp:.3f}"]
            shift = medians["B"] / medians["A"] - 1.0
            out.append(f"| {workload} | {name} | {metric['bound']} | " + " | ".join(cells) + f" | {shift:+.3f} |")
    for s in "AB":
        for workload in WORKLOADS:
            rs = records[s][workload]
            out.append(f"\nSet {s} {workload}: {len(rs)} runs, attempted "
                       f"{[r['attempted'] for r in rs]}, failed {[r['failed'] for r in rs]}, "
                       f"all correct: {all(r['correct'] for r in rs)}")
    return out


def traced_table(traced, untraced_a) -> list[str]:
    out = ["| metric | unit | " + " | ".join(WORKLOADS) + " |", "|---|---|---|---|---|"]
    first = traced[WORKLOADS[0]][0]["metrics"]
    for name, m in first.items():
        cells = [" / ".join(f"{r['metrics'][name]['value']:.4g}" for r in traced[w]) for w in WORKLOADS]
        out.append(f"| {name} | {m['unit']} | " + " | ".join(cells) + " |")
    for w in WORKLOADS:
        traced_run_s = [statistics.median(r["pass_s"]) for r in traced[w]]
        plain = statistics.median(r["metrics"]["run_s"]["value"] for r in untraced_a[w])
        out.append(f"\n{w}: traced run_s {', '.join(f'{t:.4g}' for t in traced_run_s)} s "
                   f"against the untraced set-A median {plain:.4g} s")
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    records = {s: {w: [] for w in WORKLOADS} for s in "AB"}
    traced = {w: [] for w in WORKLOADS}

    def record(key, workload, result):
        print(f"{key} {workload}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        return result

    for i in range(RUNS):
        for workload in WORKLOADS:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = (101 if s == "A" else 201) + i
                records[s][workload].append(record(s, workload, run_once(workload, seed, seconds, 0)))
    for i in range(TRACED):
        for workload in WORKLOADS:
            traced[workload].append(record("traced", workload, run_once(workload, 301 + i, seconds, 1)))

    print("\n".join(end_to_end_table(records, bench)))
    print()
    print("\n".join(traced_table(traced, records["A"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
