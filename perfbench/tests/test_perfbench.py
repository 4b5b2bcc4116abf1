"""Tests of the benchmark's own code, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import types

import pytest

from perfbench import common, compare, ingest, serve
from perfbench.build import make_world, run as run_build
from perfbench.run import Context
from perfbench.tracer import Tracer, attribute, self_times

common.import_repro()


class FakeClock:
    """A clock the traced functions advance by hand, so times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _layers(clock: FakeClock) -> types.SimpleNamespace:
    layers = types.SimpleNamespace()

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        layers.inner()
        clock.advance(3.0)
        layers.inner()

    layers.inner, layers.outer = inner, outer
    return layers


def test_self_times_and_remainder_sum_to_wall_time():
    clock = FakeClock()
    layers = _layers(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(layers, "outer", "outer")
    tracer.wrap(layers, "inner", "inner")
    started = clock()
    clock.advance(0.5)  # untraced work before the first span
    layers.outer()
    wall = clock() - started
    spans, _ = tracer.take()
    selfs = self_times(spans)
    assert selfs == {"outer": 4.0, "inner": 4.0}
    remainder = attribute(selfs, wall)
    assert remainder == 0.5
    assert sum(selfs.values()) + remainder == wall
    tracer.uninstall()
    assert layers.outer.__name__ == "outer" and not hasattr(layers.outer, "__wrapped__")


def test_attribute_rejects_self_times_beyond_the_wall():
    with pytest.raises(ValueError):
        attribute({"a": 2.0, "b": 1.5}, 3.0)
    with pytest.raises(ValueError):
        attribute({"a": -1.0}, 3.0)


def test_inherited_methods_are_shadowed_and_restored():
    class Base:
        def work(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "work", "child.work")
    assert Child().work() == "base"
    assert "work" in vars(Child)
    tracer.uninstall()
    assert "work" not in vars(Child)
    assert [span.name for span in tracer.take()[0]] == ["child.work"]


def test_timed_scales_wall_time_to_the_reference_host_speed():
    speeds = iter([common.REFERENCE_LOOP_S * 1.5, common.REFERENCE_LOOP_S * 2.5])
    result, timing = common.timed(lambda: "done", speed=lambda: next(speeds))
    assert result == "done"
    assert timing.scaled == pytest.approx(timing.wall / 2.0)


def test_tail_keeps_ten_samples_beyond():
    assert common.tail(list(range(1, 101))) == (90, 90.0)
    assert common.tail(list(range(1, 1001))) == (900, 90.0)
    assert common.tail(list(range(1, 41))) == (30, 75.0)
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
    "per_layer": [],
}


def _records(path, values):
    import json

    with open(path, "w", encoding="utf-8") as handle:
        for value in values:
            result = {"metrics": {"latency_ms": {"value": value, "unit": "ms"}}}
            handle.write(json.dumps({"workload": "w", "result": result}) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10, 10.1, 9.9, 10, 10.05], [10, 10.1, 9.9, 10, 10.05], "within bound"),
        ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "regressed"),
        ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "improved"),
        # Run-to-run spread wider than the bound: no verdict either way.
        ([10, 14, 7, 10, 12], [8, 8.1, 7.9, 8, 8.05], "unresolved"),
        ([10, 10.1, 9.9, 10, 10.05], [12, 16, 9, 13, 12], "unresolved"),
    ],
)
def test_compare_marks_wide_spreads_unresolved(tmp_path, parent, change, expected):
    rows, failing = compare.compare(
        _records(tmp_path / "a.jsonl", parent), _records(tmp_path / "b.jsonl", change), SPEC
    )
    assert len(rows) == 1 and rows[0].endswith(expected)
    assert failing == (expected in ("regressed", "unresolved"))


TINY_WORLD = {"seed": 5, "n_people": 8}


def _tiny_kb():
    from perfbench.build import build_kb

    world, wiki = make_world(TINY_WORLD)
    kb, _ = build_kb(world, wiki)
    return kb


def test_corrupt_or_mismatched_replies_count_as_failures():
    from repro.serving import serve_kb

    kb = _tiny_kb()
    server = serve_kb(kb).start()
    try:
        requests = [
            serve.get("lookup", {"p": "<<rel:bornIn>>"}),
            serve.get("topk", {"p": "<<rdf:type>>", "k": "3"}),
            serve.post_query({"patterns": [["?x", "rel:bornIn", "?c"]], "limit": 2}),
        ]
        errors: list[str] = []
        records: list[serve.Record] = []
        for request in requests:
            serve._send_recorded(server.address, request, common.clock(), records, errors)
    finally:
        server.stop()
    assert errors == []
    expected = serve.expected_digests(records, kb)

    clean = common.Outcome()
    serve.check_records(clean, records, expected)
    assert (clean.attempted, clean.failed) == (3, 0)

    corrupted = list(records)
    corrupted[0] = serve.Record(records[0].request, 0, 0, 0, 500, records[0].digest)
    corrupted[1] = serve.Record(records[1].request, 0, 0, 0, 200, serve.digest(b"{}\n"))
    outcome = common.Outcome()
    serve.check_records(outcome, corrupted, expected)
    assert (outcome.attempted, outcome.failed) == (3, 2)


def test_build_workload_checks_pass_at_tiny_size():
    config = {"kb_f1_floor": 0.5}
    for trace in (False, True):
        ctx = Context("build", seed=3, seconds=0, trace=trace, config=config,
                      workload={"world": TINY_WORLD})
        outcome = run_build(ctx)
        assert outcome.failed == 0 and outcome.attempted >= 3
        if trace:
            assert outcome.metrics["reasoning.solve_s"] > 0
            assert outcome.metrics["pipeline.unattributed_s"] >= 0
        else:
            assert outcome.metrics["op_p50_ms"] > 0
    common.remove_work()


def test_ingest_deltas_outlast_the_people_and_match_a_oneshot_rebuild():
    world, wiki = make_world(TINY_WORLD)
    spec = {"infobox_edits": 1, "posts": 2, "alias_changes": 1}
    source = ingest.DeltaSource(world, wiki, 3, spec)
    assert source.alias_targets
    # Every person edited twice, and every alias target dropped and restored.
    deltas = max(2 * len(source.people), 2 * len(source.alias_targets)) + 1
    directory = common.work_dir("test-ingest")
    builder = ingest.seed_ingest(directory, world, wiki)
    try:
        for _ in range(deltas):
            changed, aliases = source.next()
            assert changed and len(aliases) == 1
            builder.ingest(pages=changed, aliases=aliases)
    finally:
        builder.close()
    assert source.aliases != world.aliases
    outcome = common.Outcome()
    ingest.check_against_oneshot(outcome, directory, source)
    common.remove_work()
    assert (outcome.attempted, outcome.failed) == (1, 0), outcome.errors
