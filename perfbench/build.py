"""The ``build`` workload: cold serial builds, and the same corpus built
with ``workers=nproc``.

One operation is a serial build from corpus to KB, canonical bytes and a
segment directory.  Between serial builds the same corpus is built once
through ``BuildConfig(workers=nproc)``; its canonical bytes must equal the
serial bytes.

The world is pinned by the workload's ``world`` settings, so every run
builds the same facts.  The seed orders the corpus the serial builds
read; the parallel builds read it in generation order, so the byte check
also proves the build does not depend on page order.
"""

from __future__ import annotations

import random

from perfbench import common
from perfbench.common import Outcome, clock
from perfbench.layers import install_pipeline
from perfbench.tracer import Tracer, attribute, call_counts, durations, self_times

#: Layer spans whose self time is a per-layer metric of the build, by metric.
BUILD_SELF = {
    "taxonomy.integrate_s": "taxonomy.integrate",
    "nlp.analyze_s": "nlp.analyze",
    "extraction.extract_s": "extraction.extract",
    "extraction.temporal_s": "extraction.temporal",
    "extraction.merge_s": "extraction.merge",
    "reasoning.ground_s": "reasoning.ground",
    "reasoning.solve_s": "reasoning.solve",
    "extraction.multilingual_s": "extraction.multilingual",
    "determinism.canonical_s": "determinism.canonical",
    "kb.segments.write_s": "kb.segments.write",
}
BUILD_COUNTERS = (
    "extraction.candidates",
    "extraction.merged_facts",
    "reasoning.components",
    "reasoning.largest_component",
)
#: Counters the program itself keeps in ``repro.obs`` while it is enabled.
OBS_COUNTERS = ("maxsat.flips", "kb.store.add")


def make_world(spec: dict):
    """World and corpus generation from ``WorldConfig(**spec)``."""
    from repro.corpus import build_wiki
    from repro.world import WorldConfig, generate_world

    world = generate_world(WorldConfig(**spec))
    return world, build_wiki(world)


def shuffled(wiki, rng: random.Random):
    """The same corpus with its pages in the order ``rng`` draws."""
    from repro.corpus.wiki import Wiki

    titles = list(wiki.pages)
    rng.shuffle(titles)
    return Wiki(pages={title: wiki.pages[title] for title in titles},
                by_entity=dict(wiki.by_entity))


def kb_f1(kb, world) -> float:
    """Fact F1 of ``kb`` against the world's gold relational facts."""
    from repro.eval.metrics import precision_recall
    from repro.world.scenarios import FACT_RELATIONS

    def keys(store):
        return {t.spo() for t in store if t.predicate in FACT_RELATIONS}

    return precision_recall(keys(kb), keys(world.facts)).f1


def build_kb(world, wiki, workers: int = 0):
    """One build through the public entry points."""
    from repro.pipeline import BuildConfig, KnowledgeBaseBuilder

    builder = KnowledgeBaseBuilder(
        wiki, aliases=world.aliases, config=BuildConfig(workers=workers)
    )
    return builder.build()


def layer_metrics(spans, counters: dict, wall: float) -> dict[str, float]:
    """Per-layer values of one traced serial build of duration ``wall``."""
    selfs = self_times(spans)
    metrics = {metric: selfs.get(name, 0.0) for metric, name in BUILD_SELF.items()}
    metrics["nlp.sentences"] = call_counts(spans).get("nlp.analyze", 0)
    for name in BUILD_COUNTERS:
        metrics[name] = counters.get(name, 0.0)
    # The build's own self time (what no wrapped stage covers) is part of
    # the unattributed remainder, like the gaps between the wrapped calls.
    layered = {name: value for name, value in selfs.items() if name != "pipeline.build"}
    metrics["pipeline.unattributed_s"] = attribute(layered, wall)
    return metrics


def run(ctx) -> Outcome:
    import repro.determinism as determinism
    import repro.pipeline as pipeline

    spec = ctx.workload["world"]
    out = Outcome()
    setups = []

    def setup():
        generated, timing = common.timed(lambda: make_world(spec))
        setups.append(timing.scaled)
        return generated

    world, wiki = setup()
    serial_wiki = shuffled(wiki, random.Random(ctx.seed))
    segments_dir = common.work_dir("build-segments")
    workers = common.nproc()

    def serial_build():
        kb, _report = build_kb(world, serial_wiki)
        text = determinism.canonical_kb_text(kb)
        pipeline.emit_segments(kb, segments_dir)
        return kb, text

    def parallel_build():
        kb, _report = build_kb(world, wiki, workers=workers)
        return determinism.canonical_kb_text(kb)

    serial, parallel, traced_s, layers = [], [], [], []
    reference = None
    tracer = Tracer()
    deadline = clock() + ctx.seconds
    while True:
        (kb, text), timing = common.timed(serial_build)
        if reference is None:
            reference = text
            f1 = kb_f1(kb, world)
            out.check(f1 >= ctx.config["kb_f1_floor"],
                      f"kb_f1 {f1:.4f} below the floor {ctx.config['kb_f1_floor']}")
        out.check(text == reference, "serial rebuild changed the canonical bytes")
        serial.append(timing)
        if ctx.trace:
            values, timing, text, text_p = traced_builds(
                tracer, serial_build, parallel_build, segments_dir
            )
            traced_s.append(timing.scaled)
            layers.append(values)
            out.check(text == reference, "traced serial build changed the bytes")
        else:
            text_p, timing = common.timed(parallel_build)
            parallel.append(timing)
            # Set up again between builds, so the set-up median samples
            # the whole run and not only its first second.
            setup()
        out.check(text_p == reference, "parallel build differs from serial")
        if clock() >= deadline:
            break

    serial_s = [timing.scaled for timing in serial]
    out.details.update(
        world=spec,
        pages=len(wiki.pages),
        triples=len(kb),
        samples=len(serial),
        setups=len(setups),
        parallel_workers=workers,
        wall_p50_ms=common.median([timing.wall for timing in serial]) * 1000.0,
    )
    if ctx.trace:
        for name in layers[0]:
            out.metrics[name] = common.median([values[name] for values in layers])
        out.metrics["trace.overhead_ratio"] = (
            common.median(traced_s) / common.median(serial_s)
        )
        out.details["traced_builds"] = len(traced_s)
        return out
    out.metrics["setup_s"] = common.median(setups)
    out.metrics["peak_rss_mb"] = common.peak_rss_mb()
    out.metrics["kb_f1"] = f1
    out.metrics["op_p50_ms"] = common.median(serial_s) * 1000.0
    out.metrics["throughput_per_s"] = (
        len(wiki.pages) / common.median([timing.scaled for timing in parallel])
    )
    tail, percentile = common.tail(serial_s)
    out.details.update(parallel_builds=len(parallel), tail_ms=tail * 1000.0,
                       tail_percentile=percentile)
    return out


def traced_builds(tracer: Tracer, serial_build, parallel_build, segments_dir: str):
    """One traced serial build and one traced parallel build.

    Returns the serial build's per-layer values, its timing, and both
    builds' canonical bytes.
    """
    from repro.obs import core as obs

    install_pipeline(tracer)
    obs.enable()
    obs.reset()
    try:
        (_kb, text), timing = common.timed(serial_build)
        spans, counters = tracer.take()
        obs_counters = obs.counters()
        text_p = parallel_build()
        parallel_spans, _ = tracer.take()
    finally:
        obs.disable()
        obs.reset()
        tracer.uninstall()
    values = layer_metrics(spans, counters, timing.wall)
    for name in OBS_COUNTERS:
        values[name] = obs_counters.get(name, 0.0)
    values["kb.segments.bytes"] = common.dir_bytes(segments_dir, "seg-")
    parallel_selfs = self_times(parallel_spans)
    values["bigdata.pool_init_s"] = parallel_selfs.get("bigdata.pool_init", 0.0)
    values["bigdata.map_s"] = parallel_selfs.get("bigdata.map", 0.0)
    map_s = durations(parallel_spans).get("bigdata.map", 0.0)
    serial_extract = durations(spans).get("extraction.extract", 0.0)
    values["bigdata.extract_speedup"] = serial_extract / map_s if map_s else 0.0
    return values, timing, text, text_p
