"""The ``ingest`` workload: small deltas into a live segment directory.

Set-up seed-ingests the world the workload's ``world`` settings pin, so
every run starts from the same KB.  One operation submits one delta
through ``IncrementalBuilder.ingest`` and ends when a freshly opened
snapshot shows the delta's epoch.  Each delta (about 1% of the pages)
mixes three kinds of change, all drawn from ``--seed``:

* an infobox edit on a person page: a new birthplace and birth year, so
  the KB gains facts and tombstones old ones;
* an alias change: one person loses a short name form that other pages
  mention, or gets it back if an earlier delta took it, so re-extraction
  reaches past the batch;
* social posts about products, folded into their pages by
  ``attach_posts``.

Flushes stack segment generations; past the store's threshold a
background compaction folds them.  At the end the directory, compacted,
must equal a one-shot ingest of the final corpus file for file.
"""

from __future__ import annotations

import os
import random
import threading

from perfbench import common
from perfbench.build import BUILD_SELF, BUILD_COUNTERS, OBS_COUNTERS, kb_f1, make_world
from perfbench.common import Outcome, clock
from perfbench.layers import install_ingest
from perfbench.tracer import Tracer, attribute, call_counts, durations, self_times

INGEST_SELF = {
    "incremental.self_s": "incremental.ingest",
    "kb.segments.logical_parts_s": "kb.segments.logical_parts",
    "kb.segments.flush_s": "kb.segments.flush",
    "kb.segments.snapshot_open_s": "kb.segments.snapshot_open",
}


class DeltaSource:
    """Deterministic delta batches over an evolving copy of the corpus."""

    def __init__(self, world, wiki, seed: int, spec: dict) -> None:
        from repro.corpus.social import SocialConfig, generate_stream
        from repro.corpus.wiki import Wiki

        self.rng = random.Random(seed)
        self.spec = spec
        self.current = Wiki(pages=dict(wiki.pages), by_entity=dict(wiki.by_entity))
        self.original = world.aliases
        self.aliases = {entity: list(forms) for entity, forms in world.aliases.items()}
        self.posts = list(generate_stream(world, SocialConfig(seed=seed)).posts)
        self.rng.shuffle(self.posts)
        self.people = [
            person for person in world.people
            if "born" in wiki.pages[wiki.by_entity[person]].infobox
        ]
        self.rng.shuffle(self.people)
        # People whose alias list has a bare short form to drop.
        self.alias_targets = [
            person for person in world.people
            if len(self.aliases.get(person, ())) > 2
        ]
        self.rng.shuffle(self.alias_targets)
        self.dropped: set = set()
        self.city_names = sorted(world.name[city] for city in world.cities)

    def _edited(self, person):
        from repro.corpus.wiki import WikiPage

        page = self.current.pages[self.current.by_entity[person]]
        infobox = dict(page.infobox)
        born = infobox["born"]
        infobox["born"] = self.rng.choice([c for c in self.city_names if c != born])
        if infobox.get("birth_date", "").isdigit():
            infobox["birth_date"] = str(int(infobox["birth_date"]) + 1)
        return WikiPage(
            title=page.title, entity=page.entity, document=page.document,
            infobox=infobox, categories=list(page.categories),
            interlanguage=dict(page.interlanguage),
        )

    def next(self) -> tuple[list, dict]:
        """(changed pages, alias changes) of the next delta."""
        from repro.pipeline.incremental import attach_posts

        changed = {}
        for _ in range(self.spec["infobox_edits"]):
            person = self.people.pop()
            self.people.insert(0, person)
            page = self._edited(person)
            changed[page.title] = page
        take = self.spec["posts"]
        batch, self.posts = self.posts[:take], self.posts[take:] + self.posts[:take]
        for page in attach_posts(self.current, batch):
            changed[page.title] = page
        aliases = {}
        for _ in range(self.spec["alias_changes"]):
            person = self.alias_targets.pop()
            self.alias_targets.insert(0, person)
            forms = list(self.original[person])
            if person in self.dropped:
                self.dropped.remove(person)
            else:
                # Drop the bare short form (the surname) that mentions use.
                short = min(forms[1:], key=len)
                forms = [f for f in forms if f != short]
                self.dropped.add(person)
            aliases[person] = self.aliases[person] = forms
        for page in changed.values():
            self.current.pages[page.title] = page
        return [changed[title] for title in sorted(changed)], aliases


def _visible_epoch(directory: str) -> int:
    """The epoch a freshly opened snapshot of ``directory`` shows."""
    from repro.kb import segments

    with segments.open_snapshot(directory) as snapshot:
        return snapshot.epoch


def _manifest(directory: str) -> dict:
    from repro.kb.segments import MANIFEST_NAME

    return common.load_json(os.path.join(directory, MANIFEST_NAME))


def seed_ingest(directory: str, world, wiki):
    from repro.pipeline.incremental import IncrementalBuilder

    builder = IncrementalBuilder(directory)
    builder.ingest(
        pages=[wiki.pages[title] for title in sorted(wiki.pages)],
        aliases=world.aliases,
        compact=True,
    )
    return builder


def delta_layers(spans, counters: dict, obs_counters: dict, wall: float,
                 main_thread: int) -> dict[str, float]:
    """Per-layer values of one traced delta of duration ``wall``."""
    own = [span for span in spans if span.thread == main_thread]
    selfs = self_times(own)
    values = {metric: selfs.get(name, 0.0) for metric, name in BUILD_SELF.items()}
    values.update({metric: selfs.get(name, 0.0) for metric, name in INGEST_SELF.items()})
    values["incremental.ingest_s"] = durations(own).get("incremental.ingest", 0.0)
    values["nlp.sentences"] = call_counts(own).get("nlp.analyze", 0)
    for name in BUILD_COUNTERS:
        values[name] = counters.get(name, 0.0)
    for name in OBS_COUNTERS:
        values[name] = obs_counters.get(name, 0.0)
    layered = {name: value for name, value in selfs.items() if name != "pipeline.build"}
    values["pipeline.unattributed_s"] = attribute(layered, wall)
    return values


def check_against_oneshot(out: Outcome, directory: str, source: DeltaSource) -> None:
    """Compact ``directory`` and check it equals a one-shot ingest of the
    final corpus, file for file."""
    from repro.kb import diff_segment_dirs, segments
    from repro.pipeline.incremental import IncrementalBuilder

    store = segments.SegmentStore(directory)
    try:
        store.compact()
    finally:
        store.close()
    oneshot = common.work_dir("ingest-oneshot")
    with IncrementalBuilder(oneshot) as rebuild:
        rebuild.ingest(
            pages=[source.current.pages[t] for t in sorted(source.current.pages)],
            aliases=source.aliases,
            compact=True,
        )
    differences = diff_segment_dirs(directory, oneshot)
    out.check(differences == [], f"incremental != one-shot rebuild: {differences[:3]}")


def run(ctx) -> Outcome:
    from repro.kb import segments
    from repro.obs import core as obs
    from repro.pipeline.incremental import STATE_NAME

    spec = ctx.workload
    out = Outcome()
    setups = []
    for attempt in range(spec["setup_repeats"]):
        directory = common.work_dir(f"ingest-{attempt}")

        def setup():
            world, wiki = make_world(spec["world"])
            return world, wiki, seed_ingest(directory, world, wiki)

        (world, wiki, builder), timing = common.timed(setup)
        setups.append(timing.scaled)
        if attempt + 1 < spec["setup_repeats"]:
            builder.close()
    with segments.open_snapshot(directory) as snapshot:
        f1 = kb_f1(snapshot, world)
    out.check(f1 >= ctx.config["kb_f1_floor"],
              f"kb_f1 {f1:.4f} below the floor {ctx.config['kb_f1_floor']}")

    source = DeltaSource(world, wiki, ctx.seed, spec["delta"])
    main_thread = threading.get_ident()
    tracer = Tracer()
    # Background compactions start and end outside any one delta, so a
    # traced run times them for the whole run.
    compaction_tracer = Tracer()
    if ctx.trace:
        compaction_tracer.wrap(segments.SegmentStore, "compact", "kb.segments.compact")
    untraced, traced, layers, pages = [], [], [], 0
    generations, generations_max, compactions = 1, 1, 0
    try:
        deadline = clock() + ctx.seconds
        delta = 0
        while delta == 0 or clock() < deadline:
            changed, aliases = source.next()
            tracing = ctx.trace and delta % 2 == 1
            if tracing:
                install_ingest(tracer)
                obs.enable()
                obs.reset()
            try:
                (report, visible), timing = common.timed(
                    lambda: (builder.ingest(pages=changed, aliases=aliases),
                             _visible_epoch(directory)))
            finally:
                if tracing:
                    spans, counters = tracer.take()
                    obs_counters = obs.counters()
                    obs.disable()
                    obs.reset()
                    tracer.uninstall()
            out.check(visible == report.epoch_after != report.epoch_before,
                      f"delta {delta}: snapshot shows {visible}, "
                      f"ingest wrote {report.epoch_after}")
            live = len(_manifest(directory)["segments"])
            compactions += live < generations
            generations, generations_max = live, max(generations_max, live)
            pages += report.batch_pages
            (traced if tracing else untraced).append(timing.scaled)
            if tracing:
                values = delta_layers(spans, counters, obs_counters, timing.wall, main_thread)
                values.update(_report_values(report, counters, directory, STATE_NAME))
                layers.append(values)
            delta += 1
    finally:
        builder.close()
        compaction_tracer.uninstall()
    check_against_oneshot(out, directory, source)

    out.details.update(world=spec["world"], pages=len(wiki.pages), deltas=delta,
                       delta_pages=pages, compactions=compactions)
    if ctx.trace:
        for name in layers[0]:
            out.metrics[name] = common.median([values[name] for values in layers])
        out.metrics["kb.segments.compactions"] = compactions
        compaction_s = [span.duration for span in compaction_tracer.spans]
        out.metrics["kb.segments.compact_s"] = (
            common.median(compaction_s) if compaction_s else 0.0
        )
        out.metrics["kb.segments.generations_max"] = generations_max
        out.metrics["trace.overhead_ratio"] = (
            common.median(traced) / common.median(untraced)
        )
        out.details["traced_deltas"] = len(traced)
        return out
    out.metrics["setup_s"] = common.median(setups)
    out.metrics["peak_rss_mb"] = common.peak_rss_mb()
    out.metrics["kb_f1"] = f1
    out.metrics["op_p50_ms"] = common.median(untraced) * 1000.0
    out.metrics["throughput_per_s"] = pages / sum(untraced)
    tail, percentile = common.tail(untraced)
    out.details.update(samples=len(untraced), tail_ms=tail * 1000.0,
                       tail_percentile=percentile)
    return out


def _report_values(report, counters: dict, directory: str, state_name: str) -> dict[str, float]:
    """What the ingest report and the directory say about one delta."""
    changed = report.added + report.tombstones
    segment_bytes = counters.get("kb.segments.delta_bytes", 0.0)
    return {
        "incremental.reextracted_pages": report.reextracted_pages,
        "incremental.reextract_ratio": report.reextracted_pages / max(report.batch_pages, 1),
        "incremental.cached_components_ratio": (
            report.cached_components / report.components if report.components else 0.0
        ),
        "incremental.state_bytes": os.path.getsize(os.path.join(directory, state_name)),
        "kb.segments.bytes_per_changed_triple": segment_bytes / changed if changed else 0.0,
    }
