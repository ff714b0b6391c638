#!/usr/bin/env python3
"""Compare two output roots of experiment runs.

    python scripts/diff_runs.py A B

A and B are roots as written by `RONS_OUT_DIR=A python scripts/run_all.py`,
for example on two commits.  Every CSV under either root must be present
under the other with the same bytes, and every summary.json must carry the
same `metrics`.  Each difference is printed; the exit code is 1 if there is
any and 0 otherwise.

So that a change at rounding level shows as one, a CSV that differs is
reported with the row counts of both sides and, when they match, the
largest relative difference of each column; a numeric metric that differs
is reported with its relative difference.  A relative difference is
max |a - b| / max |a| over the column or the metric's values, with
positions that agree (NaN with NaN included) counting zero.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np


def _relative(root: Path, pattern: str) -> set:
    return {p.relative_to(root) for p in root.rglob(pattern)}


def relative_difference(a, b) -> float:
    """max |a - b| / max |a| elementwise over equal-shaped values."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    agree = (a == b) | (np.isnan(a) & np.isnan(b))
    gap = float(np.max(np.where(agree, 0.0, np.abs(a - b)), initial=0.0))
    scale = float(np.max(np.abs(a), initial=0.0))
    if gap == 0.0:
        return 0.0
    return gap / scale if scale > 0.0 else math.inf


def _read_table(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows, dtype=float).reshape(-1, len(header))


def _csv_difference(rel: Path, a: Path, b: Path) -> str:
    (ha, ta), (hb, tb) = _read_table(a), _read_table(b)
    line = f"{rel}: bytes differ; rows {len(ta)} and {len(tb)}"
    if ha != hb:
        return f"{line}; headers {ha} and {hb}"
    if len(ta) != len(tb):
        return f"{line}; columns not compared"
    gaps = ", ".join(
        f"{name} {relative_difference(ta[:, j], tb[:, j]):.2g}" for j, name in enumerate(ha)
    )
    return f"{line}; relative difference per column: {gaps}"


def _numeric(value) -> bool:
    if isinstance(value, list):
        return bool(value) and all(_numeric(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _metric_difference(rel: Path, key: str, va, vb) -> str:
    line = f"{rel}: metric {key}: {va!r} != {vb!r}"
    if _numeric(va) and _numeric(vb) and np.shape(va) == np.shape(vb):
        line += f" (relative difference {relative_difference(va, vb):.2g})"
    return line


def metric_differences(rel, ma: dict, mb: dict) -> list:
    """One line per key whose values differ between the metrics ma and mb
    of one run, `a != b`, a numeric one with its relative difference; `rel`
    names the run (its path under the roots, or an experiment)."""
    lines = []
    for key in sorted(set(ma) | set(mb)):
        va, vb = ma.get(key, "<absent>"), mb.get(key, "<absent>")
        if va != vb:
            lines.append(_metric_difference(rel, key, va, vb))
    return lines


def diff_runs(a: Path, b: Path) -> list:
    """One line per difference between the roots a and b."""
    problems = []
    for pattern in ("*.csv", "summary.json"):
        rels_a, rels_b = _relative(a, pattern), _relative(b, pattern)
        for rel in sorted(rels_a ^ rels_b):
            problems.append(f"{rel}: only under {a if rel in rels_a else b}")
        for rel in sorted(rels_a & rels_b):
            if pattern == "*.csv":
                if (a / rel).read_bytes() != (b / rel).read_bytes():
                    problems.append(_csv_difference(rel, a / rel, b / rel))
                continue
            ma = json.loads((a / rel).read_text())["metrics"]
            mb = json.loads((b / rel).read_text())["metrics"]
            problems.extend(metric_differences(rel, ma, mb))
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    problems = diff_runs(args.a, args.b)
    for line in problems:
        print(line)
    n_csv = len(_relative(args.a, "*.csv") | _relative(args.b, "*.csv"))
    print(f"{len(problems)} difference(s) over {n_csv} CSV files", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
