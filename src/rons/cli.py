"""Command-line experiment runner.

    rons run <config.json>          execute one experiment
    rons list                       show the registered experiments
    rons compare <A> <B>            compare two summary.json files
    rons sweep <template> <param> <values...>
                                    fan out runs over one parameter

Exit codes: 0 success, 1 validation error, 2 numerical abort.
The environment variable RONS_OUT_DIR overrides the output root.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .experiments import EXPERIMENTS, compare, output_root, resolve_config, run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        record = run(config, out_dir=args.out)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{record.config['experiment']}: {record.status} "
          f"({record.wall_time_s:.1f}s) -> {record.summary_path}")
    if record.status != "ok":
        print(f"abort reason: {record.abort_reason}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_list(_args) -> int:
    width = max(len(n) for n in EXPERIMENTS)
    for name, spec in sorted(EXPERIMENTS.items()):
        print(f"{name:<{width}}  {spec.description}")
        q0 = spec.defaults.get("q0")
        if q0 is not None:
            print(f"{'':<{width}}  default q0 = {q0}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        result = compare(args.summary_a, args.summary_b)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _sweep_one(payload):
    config, out_dir = payload
    record = run(config, out_dir=out_dir)
    return record.config["experiment"], record.status, str(record.summary_path)


def _cmd_sweep(args) -> int:
    try:
        with open(args.template) as fh:
            template = json.load(fh)
        resolved = resolve_config(template)
        if args.param not in resolved:
            raise ValueError(
                f"parameter {args.param!r} not valid for "
                f"{resolved['experiment']}"
            )
        values = [json.loads(v) for v in args.values]
        for value in values:                # every config error before any run
            resolve_config({**template, args.param: value})
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    jobs = []
    root = Path(args.out) if args.out else output_root()
    for value in values:
        config = {**template, args.param: value}
        tag = str(value).replace(" ", "").replace("/", "_")
        jobs.append((config, root / f"{resolved['experiment']}-{args.param}-{tag}"))

    failed = False
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            for name, status, path in pool.map(_sweep_one, jobs):
                print(f"{name}: {status} -> {path}")
                failed |= status != "ok"
    else:
        for job in jobs:
            name, status, path = _sweep_one(job)
            print(f"{name}: {status} -> {path}")
            failed |= status != "ok"
    return EXIT_NUMERICAL if failed else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rons", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(func=_cmd_list)

    p_cmp = sub.add_parser("compare", help="compare two run summaries")
    p_cmp.add_argument("summary_a")
    p_cmp.add_argument("summary_b")
    p_cmp.add_argument("--out", default=None, help="write comparison JSON here")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run one experiment over parameter values")
    p_sweep.add_argument("template", help="config template JSON")
    p_sweep.add_argument("param", help="config key to vary")
    p_sweep.add_argument("values", nargs="+", help="JSON-encoded values")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--out", default=None, help="output root directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
