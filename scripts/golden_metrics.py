#!/usr/bin/env python3
"""Rewrite the golden-metrics snapshot of every registered experiment.

The snapshot (`tests/golden_metrics.json`) holds the `summary.json` metrics
of each experiment at its default config.  `tests/test_acceptance.py`
checks the runs of the acceptance suite against it with the rule
|new - golden| <= 1e-6 |golden| + 1e-10, element-wise, null matching null,
and prints the largest relative change.

    python scripts/golden_metrics.py

Rewrite the snapshot only for a change that is meant to move a metric, and
say which and by how much where the change is logged.  Before it writes,
the script prints every metric that differs from the old snapshot as
`experiment: metric key: old != new`, a numeric one with its relative
difference max |old - new| / max |old| (`diff_runs.relative_difference`).
"""

import json
import tempfile
from pathlib import Path

from diff_runs import metric_differences
from rons.experiments import EXPERIMENTS, _json_sanitize, run

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden_metrics.json"


def main() -> None:
    metrics = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(EXPERIMENTS):
            record = run({"experiment": name}, out_dir=Path(tmp) / name)
            metrics[name] = _json_sanitize(record.metrics)
            print(f"done {name}: {record.status}")
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    changes = [
        line
        for name in sorted(set(old) | set(metrics))
        for line in metric_differences(name, old.get(name, {}), metrics.get(name, {}))
    ]
    print("\n".join(changes + [f"{len(changes)} metric(s) changed"]))
    GOLDEN.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
