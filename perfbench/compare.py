#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON record per line, as ``run.py --record`` writes
them.  For every workload and metric the table shows each side's median
and quartiles (``statistics.quantiles(n=4)``) and the spread, the
distance between the quartiles as a share of the median.

An end-to-end metric whose spread on either side exceeds its bound in
``BENCHMARK.json`` is marked ``unresolved``; otherwise the change is
``regressed`` when its median is worse than the parent's by more than the
bound, ``improved`` when it is better by more than the parent's spread,
and ``within bound`` else.  Per-layer metrics have no bound and get no
verdict.

The exit code is 1 when any metric regressed or is unresolved.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


def load_runs(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per recorded run."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for metric, entry in record["result"]["metrics"].items():
                values[(record["workload"], metric)].append(entry["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread); spread is (q3 - q1) / |median|."""
    q1, q2, q3 = common.quartiles(values)
    spread = (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else float("inf"))
    return q2, q1, q3, spread


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """The compare rule for one end-to-end metric (see the module doc)."""
    bound = metric["bound"]
    p_median, _, _, p_spread = summary(parent)
    c_median, _, _, c_spread = summary(change)
    if p_spread > bound or c_spread > bound:
        return "unresolved"
    worse = (c_median - p_median) / abs(p_median) if p_median else 0.0
    if metric["better"] == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    if -worse > p_spread:
        return "improved"
    return "within bound"


def _cell(values: list[float]) -> str:
    median, q1, q3, spread = summary(values)
    return f"{median:>12.5g} [{q1:.5g}, {q3:.5g}] {spread:6.1%} n={len(values)}"


def compare(parent_path: str, change_path: str, spec: dict) -> tuple[list[str], bool]:
    parent, change = load_runs(parent_path), load_runs(change_path)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [(m, True) for m in spec["end_to_end"]]
    metrics += [(m, False) for m in spec["per_layer"]]
    rows, failing = [], False
    for workload in workloads:
        for metric, bounded in metrics:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            row = (f"{workload:<11} {metric['name']:<38} "
                   f"A {_cell(parent[key])}  B {_cell(change[key])}")
            if bounded:
                mark = verdict(metric, parent[key], change[key])
                failing |= mark in ("regressed", "unresolved")
                row += f"  {mark}"
            rows.append(row)
    return rows, failing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = common.load_json(common.SPEC_PATH)
    rows, failing = compare(argv[0], argv[1], spec)
    print("\n".join(rows))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
