"""Which program entry points the traced runs wrap, and the span names.

Each ``install_*`` function wraps the calls one workload crosses.  Span
names are the layer names the per-layer metrics are reported under.
"""

from __future__ import annotations

from .tracer import Tracer


def _count_merge(tracer: Tracer, args: tuple, result) -> None:
    tracer.add("extraction.candidates", len(args[0]))
    tracer.add("extraction.merged_facts", len(result))


def _count_components(tracer: Tracer, args: tuple, result) -> None:
    report = result[1]
    tracer.add("reasoning.components", report.components)
    tracer.add("reasoning.largest_component", report.largest_component)


def install_pipeline(tracer: Tracer) -> None:
    """The build pipeline's stages, the serializers and the pool layer."""
    import repro.determinism
    import repro.pipeline
    from repro.bigdata import backends
    from repro.extraction.consistency import ConsistencyReasoner
    from repro.pipeline import builder

    tracer.wrap(builder.KnowledgeBaseBuilder, "build", "pipeline.build")
    tracer.wrap(builder, "integrate", "taxonomy.integrate")
    tracer.wrap(builder, "analyze", "nlp.analyze")
    tracer.wrap(builder.PageExtractor, "extract", "extraction.extract")
    tracer.wrap(builder, "attach_scopes", "extraction.temporal")
    tracer.wrap(builder, "candidates_to_store", "extraction.merge", _count_merge)
    tracer.wrap(ConsistencyReasoner, "ground", "reasoning.ground")
    # clean() grounds, then solves: its self time is the solve.
    tracer.wrap(ConsistencyReasoner, "clean", "reasoning.solve", _count_components)
    tracer.wrap(builder, "harvest_labels", "extraction.multilingual")
    tracer.wrap(repro.determinism, "canonical_kb_text", "determinism.canonical")
    tracer.wrap(repro.pipeline, "emit_segments", "kb.segments.write")
    tracer.wrap(builder, "get_backend", "bigdata.get_backend")
    for backend in (backends.ThreadBackend, backends.ProcessBackend):
        tracer.wrap(backend, "_ensure_pool", "bigdata.pool_init")
        tracer.wrap(backend, "map", "bigdata.map")


def install_ingest(tracer: Tracer) -> None:
    """The pipeline plus the incremental builder and the segment store.

    Bytes written into delta segments (every segment but the canonical one
    compaction writes) are counted as ``kb.segments.delta_bytes``; reading
    them off the directory afterwards would race the background compactor.
    """
    from repro.kb import segments
    from repro.pipeline.incremental import IncrementalBuilder

    def make_write_files(original):
        def write_files(directory, name, parts):
            entry = original(directory, name, parts)
            if name != segments.SegmentStore._CANONICAL:
                written = entry["blooms"]["bytes"]
                written += sum(f["bytes"] for f in entry["files"].values())
                tracer.add("kb.segments.delta_bytes", written)
            return entry

        return write_files

    install_pipeline(tracer)
    tracer.replace(segments, "_write_segment_files", make_write_files)
    tracer.wrap(IncrementalBuilder, "ingest", "incremental.ingest")
    tracer.wrap(segments.SegmentStore, "logical_parts", "kb.segments.logical_parts")
    tracer.wrap(segments.SegmentStore, "flush", "kb.segments.flush")
    tracer.wrap(segments, "open_snapshot", "kb.segments.snapshot_open")


def install_serving(tracer: Tracer) -> None:
    """The read path and the HTTP server of ``repro serve``.

    ``KBServer.process_request`` runs on the acceptor thread and only
    enqueues; the wait until a handler thread starts ``finish_request`` is
    kept as the ``serving.queue_wait`` counter, per request.
    """
    from repro.kb import segments
    from repro.kb.query import Query
    from repro.serving.engine import QueryEngine
    from repro.serving.http import KBServer

    enqueued: dict[int, float] = {}

    def make_process_request(original):
        def process_request(self, request, client_address):
            enqueued[id(request)] = tracer.clock()
            return original(self, request, client_address)

        return process_request

    def make_finish_request(original):
        def finish_request(self, request, client_address):
            with tracer.span("serving.http") as span:
                queued_at = enqueued.pop(id(request), None)
                if queued_at is not None:
                    tracer.add("serving.queue_wait", span.start - queued_at)
                tracer.add("serving.requests")
                return original(self, request, client_address)

        return finish_request

    def make_match(original):
        def match(self, *args, **kwargs):
            tracer.add("kb.segments.match_calls")
            read = 0
            try:
                for triple in original(self, *args, **kwargs):
                    read += 1
                    yield triple
            finally:
                tracer.add("kb.segments.records_read", read)

        return match

    tracer.replace(KBServer, "process_request", make_process_request)
    tracer.replace(KBServer, "finish_request", make_finish_request)
    for method in ("lookup", "query", "topk"):
        tracer.wrap(QueryEngine, method, "serving.engine")
    tracer.wrap(Query, "run", "kb.query.run")
    tracer.replace(segments.SegmentSnapshot, "match", make_match)
    tracer.wrap(segments, "open_snapshot", "kb.segments.snapshot_open")
