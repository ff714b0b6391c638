#!/usr/bin/env python3
"""Rewrite the golden-metrics snapshot of every registered experiment.

The snapshot (`tests/golden_metrics.json`) holds the `summary.json` metrics
of each experiment at its default config.  `tests/test_acceptance.py`
checks the runs of the acceptance suite against it with the rule
|new - golden| <= 1e-6 |golden| + 1e-10, element-wise, null matching null,
and prints the largest relative change.

    python scripts/golden_metrics.py

Rewrite the snapshot only for a change that is meant to move a metric, and
say which and by how much where the change is logged.
"""

import json
import tempfile
from pathlib import Path

from rons.experiments import EXPERIMENTS, _json_sanitize, run

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden_metrics.json"


def main() -> None:
    metrics = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(EXPERIMENTS):
            record = run({"experiment": name}, out_dir=Path(tmp) / name)
            metrics[name] = _json_sanitize(record.metrics)
            print(f"done {name}: {record.status}")
    GOLDEN.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
