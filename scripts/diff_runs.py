#!/usr/bin/env python3
"""Compare two output roots of experiment runs.

    python scripts/diff_runs.py A B

A and B are roots as written by `RONS_OUT_DIR=A python scripts/run_all.py`,
for example on two commits.  Every CSV under either root must be present
under the other with the same bytes, and every summary.json must carry the
same `metrics`.  Each difference is printed; the exit code is 1 if there is
any and 0 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path


def _relative(root: Path, pattern: str) -> set:
    return {p.relative_to(root) for p in root.rglob(pattern)}


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
                    problems.append(f"{rel}: bytes differ")
                continue
            ma = json.loads((a / rel).read_text())["metrics"]
            mb = json.loads((b / rel).read_text())["metrics"]
            for key in sorted(set(ma) | set(mb)):
                if ma.get(key, "<absent>") != mb.get(key, "<absent>"):
                    problems.append(
                        f"{rel}: metric {key}: {ma.get(key, '<absent>')!r} != "
                        f"{mb.get(key, '<absent>')!r}"
                    )
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
