#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the result carries every end-to-end metric named in
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric.  A human
table goes to standard error.  ``--workload all`` runs each workload in
its own process and prints one table row per workload and metric.
``--record FILE`` appends ``{"workload", "seed", "trace", "result"}`` to
a JSON-lines file that ``perfbench/compare.py`` reads.

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


@dataclass
class Context:
    """What a workload's ``run`` receives."""

    name: str
    seed: int
    seconds: float
    trace: bool
    config: dict
    workload: dict


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="FILE")
    return parser


def _log_table(name: str, line: dict, spec: dict, trace: bool) -> None:
    directions = {m["name"]: m.get("better", "-") for m in spec["end_to_end"]}
    for metric, entry in line["metrics"].items():
        direction = directions.get(metric, "-") if not trace else "-"
        print(
            f"{name:<11} {metric:<38} {entry['value']:>16.6g} {entry['unit']:<8} {direction}",
            file=sys.stderr,
        )


def run_one(args, spec: dict, config: dict) -> int:
    workload = config["workloads"].get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ctx = Context(
        name=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        config=config,
        workload=workload,
    )
    module = importlib.import_module(f"perfbench.{workload['module']}")
    try:
        outcome = module.run(ctx)
    finally:
        common.remove_work()
    if args.trace:
        line = common.result_line(outcome, spec["per_layer"], workload["unexercised"])
    else:
        line = common.result_line(outcome, spec["end_to_end"])
    for error in outcome.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    if outcome.invalid is not None:
        print(f"INVALID: {outcome.invalid}", file=sys.stderr)
    print(json.dumps({"details": outcome.details}, sort_keys=True), file=sys.stderr)
    _log_table(args.workload, line, spec, bool(args.trace))
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "result": line}
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


def run_all(args, spec: dict, config: dict) -> int:
    """Each workload in a fresh process; one row per workload and metric."""
    results, status = {}, 0
    for name in config["workloads"]:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.record:
            command += ["--record", args.record]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or completed.returncode or (results[name] is None)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"{'workload':<11} {'metric':<38} {'value':>16} {'unit':<8} better")
    for name, line in results.items():
        if line is None:
            print(f"{name:<11} (no result)")
            continue
        for metric in declared:
            entry = line["metrics"][metric["name"]]
            print(f"{name:<11} {metric['name']:<38} {entry['value']:>16.6g} "
                  f"{entry['unit']:<8} {metric.get('better', '-')}")
        print(f"{name:<11} {'correct':<38} {str(line['correct']):>16} "
              f"attempted={line['attempted']} failed={line['failed']}")
    print(json.dumps(results, sort_keys=True))
    return 1 if status else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        common.import_repro()
        spec = common.load_json(common.SPEC_PATH)
        config = common.load_json(common.WORKLOADS_PATH)
    except (common.SetupError, OSError, ValueError) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec, config)
    try:
        return run_one(args, spec, config)
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
