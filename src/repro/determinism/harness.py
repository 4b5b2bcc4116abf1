"""The cross-process determinism harness.

The KB pipeline's contract is that ``repro build --seed S`` produces the
same knowledge base in *every* process.  The one thing a single-process
test cannot catch is Python's per-process hash randomization leaking into
iteration order, so this harness runs the build N times in fresh
subprocesses, each under a distinct ``PYTHONHASHSEED``, canonically
serializes every resulting KB (sorted triples with confidence, provenance,
and temporal scope — :func:`repro.determinism.stable.canonical_kb_lines`),
and byte-compares the serializations.  On divergence it reports the first
differing triple together with the pipeline stage that produced it, so the
leak can be bisected straight to a subsystem.

The cross-mode check (:func:`check_cross_mode`) extends the same contract
across *execution strategies*: serial, sharded map-reduce, thread-pool,
and process-pool builds of the same world must also agree byte for byte.
Each mode still runs in a fresh subprocess under its own
``PYTHONHASHSEED``, so a pass certifies both properties at once.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .stable import canonical_kb_lines

#: Triple provenance (the ``src=`` annotation) -> producing pipeline stage,
#: matching the ``repro.obs`` span names of the build pipeline.
_SOURCE_TO_STAGE = {
    "infobox": "pipeline.extract.infobox",
    "surface-patterns": "pipeline.extract.sentences",
    "year-attributes": "pipeline.extract.sentences",
}


@dataclass(frozen=True, slots=True)
class Divergence:
    """The first point where two runs' canonical serializations differ."""

    run_a: int                  # PYTHONHASHSEED of the reference run
    run_b: int                  # PYTHONHASHSEED of the diverging run
    line_a: Optional[str]       # triple present at the position in run A
    line_b: Optional[str]       # triple present at the position in run B
    stage: str                  # best-effort producing pipeline stage

    def describe(self) -> str:
        parts = [
            f"runs PYTHONHASHSEED={self.run_a} and PYTHONHASHSEED={self.run_b} "
            f"diverge (stage: {self.stage})"
        ]
        if self.line_a is not None:
            parts.append(f"  only/first in run {self.run_a}: {self.line_a}")
        if self.line_b is not None:
            parts.append(f"  only/first in run {self.run_b}: {self.line_b}")
        return "\n".join(parts)


@dataclass(slots=True)
class DeterminismReport:
    """Outcome of a multi-process determinism check."""

    ok: bool
    runs: int
    hash_seeds: list[int] = field(default_factory=list)
    triples: int = 0
    divergence: Optional[Divergence] = None
    build_args: list[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return (
                f"deterministic: {self.runs} subprocess builds "
                f"(PYTHONHASHSEED={self.hash_seeds}) produced byte-identical "
                f"canonical KBs ({self.triples} triples)"
            )
        assert self.divergence is not None
        return "NOT deterministic:\n" + self.divergence.describe()


def stage_of_line(line: Optional[str]) -> str:
    """Best-effort producing stage of one canonical triple line.

    Extraction triples carry their extractor in the ``src=`` annotation;
    taxonomy and label triples are recognized by predicate.  This is the
    provenance-based bisection over the PR-1 ``repro.obs`` stage breakdown.
    """
    if line is None:
        return "unknown"
    source = None
    if " # " in line:
        for item in line.rsplit(" # ", 1)[1].split():
            key, __, value = item.partition("=")
            if key == "src":
                source = value
    if source in _SOURCE_TO_STAGE:
        return _SOURCE_TO_STAGE[source]
    if "<<rdf:type>>" in line or "<<rdfs:subClassOf>>" in line:
        return "pipeline.taxonomy"
    if "<<rdfs:label>>" in line:
        return "pipeline.multilingual"
    if "<<skos:prefLabel>>" in line:
        return "pipeline.labels"
    if source is not None:
        # Label triples harvested from pages use the page title as source.
        return "pipeline.multilingual"
    return "pipeline (schema or unattributed)"


def first_divergence(
    lines_a: list[str], lines_b: list[str], run_a: int, run_b: int
) -> Divergence:
    """Locate the first differing canonical line between two runs."""
    for a, b in zip(lines_a, lines_b):
        if a != b:
            return Divergence(run_a, run_b, a, b, stage_of_line(min(a, b)))
    # One serialization is a strict prefix of the other.
    if len(lines_a) > len(lines_b):
        extra = lines_a[len(lines_b)]
        return Divergence(run_a, run_b, extra, None, stage_of_line(extra))
    extra = lines_b[len(lines_a)]
    return Divergence(run_a, run_b, None, extra, stage_of_line(extra))


def _build_once(
    hash_seed: int,
    out_path: str,
    seed: int,
    people: int,
    shards: Optional[int],
    timeout: float,
    workers: int = 0,
    backend: Optional[str] = None,
    schedule: Optional[str] = None,
    segments_dir: Optional[str] = None,
    corpus_transport: Optional[str] = None,
) -> list[str]:
    """Run one ``repro build`` in a fresh subprocess; return canonical lines."""
    from ..kb.rdfio import load

    command = [
        sys.executable, "-m", "repro", "build",
        "--seed", str(seed), "--people", str(people), "--out", out_path,
    ]
    if segments_dir is not None:
        command += ["--segments", segments_dir]
    if shards is not None:
        command += ["--shards", str(shards)]
    if workers:
        command += ["--workers", str(workers)]
    if backend is not None:
        command += ["--backend", backend]
    if schedule is not None:
        command += ["--schedule", schedule]
    if corpus_transport is not None:
        command += ["--corpus-transport", corpus_transport]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    # The subprocess must resolve the same ``repro`` package as this one.
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=timeout
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"build under PYTHONHASHSEED={hash_seed} failed "
            f"(exit {completed.returncode}):\n{completed.stderr}"
        )
    return canonical_kb_lines(load(out_path))


def check_determinism(
    runs: int = 3,
    seed: int = 7,
    people: int = 40,
    shards: Optional[int] = None,
    hash_seeds: Optional[Sequence[int]] = None,
    timeout: float = 600.0,
) -> DeterminismReport:
    """Build the KB ``runs`` times under distinct hash seeds and compare.

    Returns a report; ``report.ok`` is True iff every run's canonical
    serialization is byte-identical to the first run's.
    """
    if runs < 2:
        raise ValueError("a determinism check needs at least 2 runs")
    seeds = list(hash_seeds) if hash_seeds is not None else list(range(runs))
    if len(seeds) != runs:
        raise ValueError("hash_seeds must provide one value per run")
    if len(set(seeds)) != len(seeds):
        raise ValueError("hash_seeds must be distinct")

    build_args = ["--seed", str(seed), "--people", str(people)]
    if shards is not None:
        build_args += ["--shards", str(shards)]
    report = DeterminismReport(
        ok=True, runs=runs, hash_seeds=seeds, build_args=build_args
    )
    reference: Optional[list[str]] = None
    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as tmp:
        for index, hash_seed in enumerate(seeds):
            out_path = os.path.join(tmp, f"kb_{hash_seed}.nt")
            lines = _build_once(
                hash_seed, out_path, seed, people, shards, timeout
            )
            if reference is None:
                reference = lines
                report.triples = len(lines)
                continue
            if lines != reference:
                report.ok = False
                report.divergence = first_divergence(
                    reference, lines, seeds[0], hash_seed
                )
                return report
    return report


# ------------------------------------------------------ cross-mode checking


@dataclass(frozen=True, slots=True)
class BuildMode:
    """One execution strategy of the same logical build."""

    label: str
    shards: Optional[int] = None
    workers: int = 0
    backend: Optional[str] = None
    schedule: Optional[str] = None
    corpus_transport: Optional[str] = None


#: The default mode matrix: every execution strategy the pipeline offers,
#: including the work-stealing dispatch schedule and the segment-backed
#: zero-copy corpus transport — workers reading pages from a shared corpus
#: file must produce the same bytes as workers holding the whole Wiki in
#: memory, under static and stealing dispatch alike.
CROSS_MODES: tuple[BuildMode, ...] = (
    BuildMode("serial"),
    BuildMode("shards4", shards=4),
    BuildMode("thread2", workers=2, backend="thread"),
    BuildMode("process2", workers=2, backend="process"),
    BuildMode("steal-thread2", workers=2, backend="thread", schedule="steal"),
    BuildMode("steal-process2", workers=2, backend="process", schedule="steal"),
    BuildMode(
        "corpus-thread2",
        workers=2, backend="thread", corpus_transport="file",
    ),
    BuildMode(
        "corpus-process2",
        workers=2, backend="process", corpus_transport="file",
    ),
    BuildMode(
        "steal-corpus-process2",
        workers=2, backend="process",
        schedule="steal", corpus_transport="file",
    ),
)


@dataclass(slots=True)
class CrossModeReport:
    """Outcome of a cross-execution-mode determinism check."""

    ok: bool
    modes: list[str] = field(default_factory=list)
    triples: int = 0
    diverging_mode: Optional[str] = None
    divergence: Optional[Divergence] = None

    def describe(self) -> str:
        if self.ok:
            return (
                f"cross-mode deterministic: {len(self.modes)} execution modes "
                f"({', '.join(self.modes)}) produced byte-identical canonical "
                f"KBs ({self.triples} triples)"
            )
        assert self.divergence is not None
        return (
            f"NOT cross-mode deterministic (mode {self.diverging_mode} "
            f"differs from {self.modes[0]}):\n" + self.divergence.describe()
        )


def check_cross_mode(
    seed: int = 7,
    people: int = 40,
    modes: Sequence[BuildMode] = CROSS_MODES,
    timeout: float = 600.0,
) -> CrossModeReport:
    """Build the same world under every execution mode and byte-compare.

    Each mode runs in a fresh subprocess under a distinct
    ``PYTHONHASHSEED`` (the mode's index), so this subsumes a 1-run-per-
    mode hash-seed check on top of the serial/sharded/parallel agreement.
    """
    if len(modes) < 2:
        raise ValueError("a cross-mode check needs at least 2 modes")
    report = CrossModeReport(ok=True, modes=[mode.label for mode in modes])
    reference: Optional[list[str]] = None
    with tempfile.TemporaryDirectory(prefix="repro-crossmode-") as tmp:
        for index, mode in enumerate(modes):
            out_path = os.path.join(tmp, f"kb_{mode.label}.nt")
            lines = _build_once(
                index, out_path, seed, people, mode.shards, timeout,
                workers=mode.workers, backend=mode.backend,
                schedule=mode.schedule,
                corpus_transport=mode.corpus_transport,
            )
            if reference is None:
                reference = lines
                report.triples = len(lines)
                continue
            if lines != reference:
                report.ok = False
                report.diverging_mode = mode.label
                report.divergence = first_divergence(
                    reference, lines, 0, index
                )
                return report
    return report


def check_cross_mode_fast(
    seed: int = 7,
    people: int = 40,
    modes: Sequence[BuildMode] = CROSS_MODES,
) -> CrossModeReport:
    """In-process cross-mode byte-identity check (no subprocess builds).

    The subprocess harness pays interpreter startup plus a full world
    generation *per mode*; this variant generates the world and Wiki once
    and runs :class:`~repro.pipeline.builder.KnowledgeBaseBuilder`
    directly for every mode, byte-comparing the canonical serializations.
    It cannot vary ``PYTHONHASHSEED`` (that needs fresh processes — use
    :func:`check_cross_mode` for the full certificate), but it exercises
    the identical execution strategies — thread/process pools, stealing
    dispatch, segment-backed corpus transport — at a fraction of the
    wall-clock, which is what CI smoke and tight edit loops want.
    """
    from ..corpus import build_wiki
    from ..pipeline import BuildConfig, KnowledgeBaseBuilder
    from ..world import WorldConfig, generate_world

    if len(modes) < 2:
        raise ValueError("a cross-mode check needs at least 2 modes")
    world = generate_world(WorldConfig(seed=seed, n_people=people))
    wiki = build_wiki(world)
    report = CrossModeReport(ok=True, modes=[mode.label for mode in modes])
    reference: Optional[list[str]] = None
    for index, mode in enumerate(modes):
        config = BuildConfig(
            mapreduce_shards=mode.shards,
            workers=mode.workers,
            backend=mode.backend if mode.backend is not None else "auto",
            schedule=mode.schedule if mode.schedule is not None else "static",
            corpus_transport=(
                mode.corpus_transport
                if mode.corpus_transport is not None
                else "auto"
            ),
        )
        kb, __ = KnowledgeBaseBuilder(
            wiki, aliases=world.aliases, config=config
        ).build()
        lines = canonical_kb_lines(kb)
        if reference is None:
            reference = lines
            report.triples = len(lines)
            continue
        if lines != reference:
            report.ok = False
            report.diverging_mode = mode.label
            report.divergence = first_divergence(reference, lines, 0, index)
            return report
    return report


# --------------------------------------------------- segment file checking


#: Segment runs vary worker count *and* backend on top of the hash seed:
#: the byte-pin promise is "same world, same files, any execution mode".
SEGMENT_MODES: tuple[BuildMode, ...] = (
    BuildMode("serial"),
    BuildMode("thread2", workers=2, backend="thread"),
    BuildMode("process2", workers=2, backend="process"),
)


@dataclass(slots=True)
class SegmentDeterminismReport:
    """Outcome of a file-level segment determinism check.

    Unlike :class:`DeterminismReport`, which compares *canonical
    serializations* (order-insensitive by construction), this check
    compares the emitted segment **files byte for byte** — manifest,
    order files, and bloom sidecars — so it certifies the stronger
    property the byte-pinned format promises: two builds of the same
    world are the same files, at any worker count or backend.
    """

    ok: bool
    modes: list[str] = field(default_factory=list)
    triples: int = 0
    files: int = 0
    diverging_mode: Optional[str] = None
    differences: list[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return (
                f"segment-deterministic: {len(self.modes)} builds "
                f"({', '.join(self.modes)}) emitted byte-identical segment "
                f"files ({self.files} files, {self.triples} triples)"
            )
        lines = [
            f"NOT segment-deterministic (mode {self.diverging_mode} differs "
            f"from {self.modes[0]}):"
        ]
        lines += [f"  {difference}" for difference in self.differences]
        return "\n".join(lines)


def check_segment_determinism(
    seed: int = 7,
    people: int = 40,
    modes: Sequence[BuildMode] = SEGMENT_MODES,
    timeout: float = 600.0,
) -> SegmentDeterminismReport:
    """Build segments under several execution modes and diff the files.

    Each build runs ``repro build --segments`` in a fresh subprocess with
    a distinct ``PYTHONHASHSEED`` and its own output directory; the
    directories are then compared file-for-file (sha256) with
    :func:`repro.kb.segments.diff_segment_dirs`.
    """
    from ..kb.segments import MANIFEST_NAME, diff_segment_dirs

    if len(modes) < 2:
        raise ValueError("a segment determinism check needs at least 2 modes")
    report = SegmentDeterminismReport(ok=True, modes=[mode.label for mode in modes])
    with tempfile.TemporaryDirectory(prefix="repro-segments-") as tmp:
        reference_dir: Optional[str] = None
        for index, mode in enumerate(modes):
            segments_dir = os.path.join(tmp, f"segments_{mode.label}")
            out_path = os.path.join(tmp, f"kb_{mode.label}.nt")
            lines = _build_once(
                index, out_path, seed, people, mode.shards, timeout,
                workers=mode.workers, backend=mode.backend,
                schedule=mode.schedule, segments_dir=segments_dir,
            )
            if reference_dir is None:
                reference_dir = segments_dir
                report.triples = len(lines)
                report.files = sum(
                    1
                    for name in os.listdir(segments_dir)
                    if name == MANIFEST_NAME or name.startswith("seg-")
                )
                continue
            differences = diff_segment_dirs(reference_dir, segments_dir)
            if differences:
                report.ok = False
                report.diverging_mode = mode.label
                report.differences = differences
                return report
    return report


# ---------------------------------------------- incremental-build checking


#: The fact key the incremental check retracts: a schema triple, present
#: in every world, so the retraction deterministically exercises a
#: tombstone in the delta generation regardless of seed or size.
_RETRACTED_KEY = ("<cls:location>", "<<rdfs:subClassOf>>", "<kb:Thing>")


@dataclass(slots=True)
class IncrementalDeterminismReport:
    """Outcome of the incremental == full-rebuild byte-identity check.

    For each execution mode, the same corpus is built twice — once as two
    delta ingests (the second carrying a retraction, flushed with a
    tombstone, then compacted) and once as a single one-shot ingest — and
    the two segment directories are diffed file for file, plus the
    canonical KB serializations byte-compared.  The mode directories are
    then diffed against the first mode's, so a pass certifies
    ``incremental(full ∪ delta) == full_rebuild(full ∪ delta)`` across
    serial/threaded/process execution under distinct ``PYTHONHASHSEED``.
    """

    ok: bool
    modes: list[str] = field(default_factory=list)
    triples: int = 0
    files: int = 0
    tombstones: int = 0
    diverging_mode: Optional[str] = None
    differences: list[str] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return (
                f"incremental-deterministic: {len(self.modes)} modes "
                f"({', '.join(self.modes)}) — two-batch ingest + retraction "
                f"+ compaction is byte-identical to a one-shot rebuild "
                f"({self.files} files, {self.triples} triples, "
                f"{self.tombstones} tombstone(s) exercised)"
            )
        lines = [
            f"NOT incremental-deterministic (mode {self.diverging_mode}):"
        ]
        lines += [f"  {difference}" for difference in self.differences]
        return "\n".join(lines)


def _ingest_once(
    hash_seed: int,
    segments_dir: str,
    seed: int,
    people: int,
    timeout: float,
    mode: BuildMode,
    start: Optional[int] = None,
    upto: Optional[int] = None,
    retract: Sequence[Sequence[str]] = (),
    compact: bool = False,
) -> None:
    """Run one ``repro ingest`` in a fresh subprocess."""
    command = [
        sys.executable, "-m", "repro", "ingest",
        "--segments", segments_dir,
        "--seed", str(seed), "--people", str(people),
    ]
    if start is not None:
        command += ["--start", str(start)]
    if upto is not None:
        command += ["--upto", str(upto)]
    for key in retract:
        command += ["--retract", *key]
    if compact:
        command += ["--compact"]
    if mode.workers:
        command += ["--workers", str(mode.workers)]
    if mode.backend is not None:
        command += ["--backend", mode.backend]
    if mode.schedule is not None:
        command += ["--schedule", mode.schedule]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=timeout
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"ingest under PYTHONHASHSEED={hash_seed} failed "
            f"(exit {completed.returncode}):\n{completed.stderr}"
        )


def check_incremental_determinism(
    seed: int = 7,
    people: int = 40,
    modes: Sequence[BuildMode] = SEGMENT_MODES,
    timeout: float = 600.0,
    delta_fraction: float = 0.2,
) -> IncrementalDeterminismReport:
    """Verify ``incremental == full-rebuild`` byte-identity per mode.

    For every mode (fresh subprocesses, ``PYTHONHASHSEED`` = mode index):

    1. ingest the first ``1 - delta_fraction`` of pages into directory A;
    2. ingest the rest as a delta carrying a retraction — then assert the
       delta generation holds at least one tombstone record;
    3. compact A to canonical form (erasing the tombstone);
    4. one-shot ingest *everything* (same retraction) into directory B;
    5. ``diff_segment_dirs(A, B)`` must be empty and the canonical KB
       serializations byte-identical — and A must equal the first mode's
       A, closing the loop across execution modes.
    """
    import json

    from ..kb.segments import (
        MANIFEST_NAME,
        SegmentStore,
        diff_segment_dirs,
        open_snapshot,
    )

    report = IncrementalDeterminismReport(
        ok=True, modes=[mode.label for mode in modes]
    )
    cut = _page_cut(seed, people, delta_fraction)
    with tempfile.TemporaryDirectory(prefix="repro-incremental-") as tmp:
        reference_dir: Optional[str] = None
        reference_lines: Optional[list[str]] = None
        for index, mode in enumerate(modes):
            incremental_dir = os.path.join(tmp, f"incremental_{mode.label}")
            oneshot_dir = os.path.join(tmp, f"oneshot_{mode.label}")
            _ingest_once(
                index, incremental_dir, seed, people, timeout, mode,
                upto=cut,
            )
            _ingest_once(
                index, incremental_dir, seed, people, timeout, mode,
                start=cut, retract=[_RETRACTED_KEY],
            )
            with open(os.path.join(incremental_dir, MANIFEST_NAME)) as handle:
                manifest = json.load(handle)
            tombstones = sum(
                entry.get("tombstones", 0) for entry in manifest["segments"]
            )
            if tombstones < 1:
                report.ok = False
                report.diverging_mode = mode.label
                report.differences = [
                    "the retraction delta produced no tombstone record"
                ]
                return report
            report.tombstones = max(report.tombstones, tombstones)
            # Compact in-process: pure file folding, content-deterministic.
            store = SegmentStore(incremental_dir)
            try:
                store.compact()
            finally:
                store.close()
            _ingest_once(
                index, oneshot_dir, seed, people, timeout, mode,
                retract=[_RETRACTED_KEY], compact=True,
            )
            differences = diff_segment_dirs(incremental_dir, oneshot_dir)
            if differences:
                report.ok = False
                report.diverging_mode = mode.label
                report.differences = [
                    "incremental vs one-shot: " + d for d in differences
                ]
                return report
            with open_snapshot(incremental_dir) as snapshot:
                lines = canonical_kb_lines(snapshot)
            if reference_dir is None:
                reference_dir, reference_lines = incremental_dir, lines
                report.triples = len(lines)
                report.files = sum(
                    1
                    for name in os.listdir(incremental_dir)
                    if name == MANIFEST_NAME or name.startswith("seg-")
                )
                continue
            differences = diff_segment_dirs(reference_dir, incremental_dir)
            if differences:
                report.ok = False
                report.diverging_mode = mode.label
                report.differences = [
                    f"vs mode {modes[0].label}: " + d for d in differences
                ]
                return report
            if lines != reference_lines:
                report.ok = False
                report.diverging_mode = mode.label
                report.differences = [
                    "canonical KB serialization differs: "
                    + first_divergence(reference_lines, lines, 0, index)
                    .describe()
                ]
                return report
    return report


def _page_cut(seed: int, people: int, delta_fraction: float) -> int:
    """Where the base/delta batch boundary falls in sorted title order.

    The world is regenerated here once (page counts are world-dependent)
    so the same cut is handed to every mode's subprocesses.
    """
    from ..corpus import build_wiki
    from ..world import WorldConfig, generate_world

    world = generate_world(WorldConfig(seed=seed, n_people=people))
    pages = len(build_wiki(world).pages)
    return max(1, int(pages * (1.0 - delta_fraction)))
