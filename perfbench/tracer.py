"""Run-time spans around the program's layer entry points.

A :class:`Tracer` replaces a function or method on its owning module or
class with a wrapper that records a span, and puts the original back on
:meth:`Tracer.uninstall`.  The program's files are untouched: spans follow
its real control flow because its own calls go through the replaced
attribute.

Spans nest per thread.  A span's *self* time is its duration minus the
time its child spans cover; children on one thread run one after another
inside their parent, so that cover is the sum of their durations.  Spans
stay in memory until the caller takes them.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional


_INHERITED = object()


class Span:
    __slots__ = ("name", "start", "end", "child", "parent", "thread")

    def __init__(self, name: str, start: float, parent: Optional["Span"], thread: int):
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.parent = parent
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def to_row(self) -> list:
        parent = self.parent.name if self.parent is not None else None
        return [self.name, self.start, self.end, self.child, parent, self.thread]


class _Active:
    """Context manager for one span on the calling thread's stack."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        stack = tracer._stack()
        parent = stack[-1] if stack else None
        self.tracer = tracer
        self.span = Span(name, tracer.clock(), parent, threading.get_ident())
        stack.append(self.span)

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> None:
        span = self.span
        span.end = self.tracer.clock()
        self.tracer._stack().pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.tracer.spans.append(span)


class Tracer:
    """Wraps entry points with spans and keeps counters, all in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._counters: list[dict] = []
        self._counters_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Active:
        return _Active(self, name)

    def add(self, counter: str, n: float = 1) -> None:
        """Add to a counter (per-thread, summed by :meth:`counters`)."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(float)
            with self._counters_lock:
                self._counters.append(counts)
        counts[counter] += n

    def counters(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        with self._counters_lock:
            for counts in self._counters:
                for name, value in list(counts.items()):
                    total[name] += value
        return dict(total)

    def take(self) -> tuple[list[Span], dict[str, float]]:
        """Hand over the finished spans and counters, and start afresh."""
        spans, self.spans = self.spans, []
        counters = self.counters()
        with self._counters_lock:
            for counts in self._counters:
                counts.clear()
        return spans, counters

    # ---------------------------------------------------------- patching

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        An attribute a class inherits is shadowed on the class, and the
        shadow is deleted again on :meth:`uninstall`.
        """
        own = vars(owner).get(attr, _INHERITED)
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, own))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_return: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``on_return(tracer, args, result)`` runs inside the span after the
        call, to read counts off its arguments or result.
        """
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                with _Active(tracer, name):
                    result = original(*args, **kwargs)
                    if on_return is not None:
                        on_return(tracer, args, result)
                    return result

            return traced

        self.replace(owner, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -------------------------------------------------------------- analysis


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.self_time
    return dict(totals)


def durations(spans: Iterable[Span]) -> dict[str, float]:
    """Total duration per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration
    return dict(totals)


def call_counts(spans: Iterable[Span]) -> dict[str, int]:
    totals: dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span.name] += 1
    return dict(totals)


def attribute(selfs: dict[str, float], wall: float, tolerance: float = 1e-6) -> float:
    """The unattributed remainder of ``wall`` after the layers' self times.

    Raises when the self times cannot belong to ``wall``: a negative self
    time (a child outlived its parent) or more self time than wall time.
    By construction the self times plus the remainder then equal ``wall``.
    """
    negative = {name: value for name, value in selfs.items() if value < -tolerance}
    if negative:
        raise ValueError(f"negative self time: {negative}")
    covered = sum(selfs.values())
    remainder = wall - covered
    if remainder < -max(tolerance, 1e-3 * wall):
        raise ValueError(
            f"self times {covered:.6f}s exceed the wall time {wall:.6f}s"
        )
    return remainder
