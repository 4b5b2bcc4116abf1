"""Shared plumbing for the benchmark: locating the program, statistics,
memory readings and the result line.

The benchmark lives beside the program it measures and imports the
``repro`` package from ``src/`` of the same checkout, never from an
installed copy, so a checkout without ``src/repro`` fails loudly.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS_PATH = os.path.join(HERE, "workloads.json")
#: Scratch space for segment directories and span dumps, inside the
#: checkout (the benchmark writes nowhere else); one directory per run.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
RUN_DIR = os.path.join(WORK_ROOT, str(os.getpid()))

#: The tail statistic keeps this many samples beyond it, and is read at
#: the highest of these percentiles that does.  It stops at p90: on a
#: shared 2-core host the p99 of a 9 s open loop read 13-46 ms over five
#: runs of one workload, too wide for any bound; the log shows the p99.
TAIL_BEYOND = 10
TAIL_PERCENTILES = (90.0, 75.0, 50.0)

#: What :func:`host_loop_s` takes on the host the benchmark was tuned on
#: (a 2-core VM) when no other tenant loads its core.
REFERENCE_LOOP_S = 0.006

clock = time.perf_counter


def host_loop_s() -> float:
    """Time a fixed pure-Python loop: the host's speed at this moment."""
    started = clock()
    total = 0
    for i in range(100_000):
        total += i * i
    return clock() - started


def host_speed_s() -> float:
    """:func:`host_loop_s` on each core this process may use, in turn, and
    averaged: the speed of work that spans the cores, such as a server in
    a second process and its clients.  Pins only the calling thread, and
    restores its affinity."""
    own = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(own):
            os.sched_setaffinity(0, {cpu})
            times.append(host_loop_s())
    finally:
        os.sched_setaffinity(0, own)
    return sum(times) / len(times)


@dataclass(frozen=True)
class Timing:
    """One operation's wall time, and that time scaled to the host speed
    :data:`REFERENCE_LOOP_S` stands for.

    The vCPUs of a shared host run 1.3-1.5x slower for seconds to minutes
    at a time while other tenants load them, often for a whole run; no
    statistic over a run's own samples removes that.  :func:`timed`
    times the reference loop just before and after the operation and
    scales by the mean: over seven 12 s ingest runs on a 2-core VM the
    median delta read 0.27-0.37 s in wall time and 0.215-0.237 s scaled.
    """

    wall: float
    scaled: float


def timed(operation, speed=host_loop_s):
    """``(operation(), Timing)``, the host's speed read by ``speed``."""
    before = speed()
    started = clock()
    result = operation()
    wall = clock() - started
    after = speed()
    return result, Timing(wall, wall * REFERENCE_LOOP_S * 2.0 / (before + after))


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    package = os.path.join(src, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise SetupError(f"no program to measure: {package} is missing")
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.dirname(package):
        raise SetupError(f"imported repro from {repro.__file__}, not {src}")
    return repro


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def nproc() -> int:
    """Cores this process may run on (the client and worker budget)."""
    return len(os.sched_getaffinity(0))


def work_dir(name: str) -> str:
    """A fresh, empty directory under this run's :data:`RUN_DIR`."""
    path = os.path.join(RUN_DIR, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work() -> None:
    """Delete this run's scratch directory (and the root, once empty)."""
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass


# ------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * p / 100.0) - 1, 0)]


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(value, percentile): the highest of :data:`TAIL_PERCENTILES` with at
    least :data:`TAIL_BEYOND` samples beyond it, read as the sample at that
    rank.

    With too few samples for even the median to qualify, the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        index = math.ceil(n * p / 100.0) - 1
        if n - 1 - index >= TAIL_BEYOND:
            return ordered[index], p
    return ordered[-1], 100.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory in MiB: this process, or ``pid`` via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(directory: str, prefix: str = "") -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.startswith(prefix)
    )


# ----------------------------------------------------------------- result


@dataclass
class Outcome:
    """What one workload run produced, before it becomes the result line.

    ``attempted``/``failed`` count checked operations; ``errors`` keeps
    the first few failure descriptions for the log.  ``metrics`` maps a
    metric name to its value; ``details`` holds what the log shows beside
    them (sample counts, percentiles, offered rates).
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)
    invalid: Optional[str] = None

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def result_line(outcome: Outcome, declared: list[dict], unexercised=()) -> dict:
    """The contract's last-line object for the metrics ``declared``.

    Metrics named in ``unexercised`` belong to layers the workload does not
    run; they read 0.  Any other metric the workload did not measure is an
    error in the benchmark.
    """
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    unknown = [name for name in missing if name not in unexercised]
    if unknown:
        raise RuntimeError(f"workload did not measure: {unknown}")
    for name in missing:
        outcome.metrics[name] = 0.0
    return {
        "correct": outcome.failed == 0 and outcome.invalid is None,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
