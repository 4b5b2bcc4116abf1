"""The ``serve_hot`` workload: ``repro serve`` over HTTP.

Set-up generates the world the workload's ``world`` settings pin, builds
its KB, writes a segment directory and starts ``repro serve --segments``
with the server's defaults in a second process.  ``--seed`` draws the
traffic.  Load comes from this process over at most ``nproc``
connections, one request per connection as the server's HTTP/1.0 asks:

1. a short closed-loop warm-up, checked but not measured, that fills the
   result cache;
2. rounds of two slices each: a closed loop with ``nproc`` connections,
   for throughput, and an open loop at the workload's fixed offered
   rate, Poisson arrivals, for latency measured from each request's due
   time.

Every reply must be a 200 whose body is byte for byte what an in-process
``QueryEngine`` over the in-memory ``TripleStore`` of the same KB answers.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional
from urllib.parse import urlencode

from perfbench import common
from perfbench.build import build_kb, kb_f1, make_world
from perfbench.common import Outcome, clock
from perfbench.tracer import attribute

LAUNCHER = os.path.join(common.HERE, "launcher.py")


@dataclass(frozen=True)
class Request:
    """One request: its kind, the bytes sent, and what the engine gets."""

    kind: str       # lookup | topk | query | metrics
    wire: bytes
    params: object  # query parameters (GET) or the JSON payload (POST)


def get(kind: str, params: dict) -> Request:
    path = f"/{kind}?{urlencode(params)}" if params else f"/{kind}"
    wire = f"GET {path} HTTP/1.0\r\nHost: bench\r\n\r\n".encode("ascii")
    return Request(kind, wire, params)


def post_query(payload: dict) -> Request:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (f"POST /query HTTP/1.0\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
    return Request("query", head + body, payload)


METRICS = get("metrics", {})


# -------------------------------------------------------------- traffic


def _zipf_picker(items: list, exponent: float, rng: random.Random):
    cumulative, total = [], 0.0
    for rank in range(1, len(items) + 1):
        total += 1.0 / rank**exponent
        cumulative.append(total)

    def pick():
        return items[bisect.bisect_left(cumulative, rng.random() * total)]

    return pick


def hot_requests(kb, world, mix: dict, rng: random.Random):
    """The E18 mix: lookups, top-k and 2-pattern joins, zipf-skewed.

    ``mix`` gives the lookup and top-k shares; the rest are joins.

    Lookup targets are a person alone or a person with one of the
    person's predicates, so the distinct keys outnumber the cache; which
    target is hot is drawn from the seed.  Returns (sampler, distinct keys).
    """
    from repro.kb.rdfio import term_to_text

    people = sorted(world.people, key=lambda e: e.id)
    person_set = set(people)
    pairs = sorted({(t.subject, t.predicate) for t in kb if t.subject in person_set},
                   key=lambda sp: (sp[0].id, sp[1].id))
    lookups = [{"s": term_to_text(p)} for p in people]
    lookups += [{"s": term_to_text(s), "p": term_to_text(p)} for s, p in pairs]
    predicates = sorted({t.predicate for t in kb}, key=lambda p: p.id)
    topks = [{"p": term_to_text(p), "k": str(mix["topk_k"])} for p in predicates]
    joins = [
        {"patterns": [[term_to_text(p), "rel:bornIn", "?c"], ["?c", "rel:locatedIn", "?k"]]}
        for p in people
    ]
    for group in (lookups, topks, joins):
        rng.shuffle(group)
    pick_lookup = _zipf_picker(lookups, mix["zipf_exponent"], rng)
    pick_topk = _zipf_picker(topks, mix["zipf_exponent"], rng)
    pick_join = _zipf_picker(joins, mix["zipf_exponent"], rng)
    lookup_share, topk_share = mix["lookup"], mix["lookup"] + mix["topk"]
    if not 0.0 <= lookup_share <= topk_share <= 1.0:
        raise ValueError(f"lookup and topk shares must sum to at most 1: {mix}")

    def sample() -> Request:
        roll = rng.random()
        if roll < lookup_share:
            return get("lookup", pick_lookup())
        if roll < topk_share:
            return get("topk", pick_topk())
        return post_query(pick_join())

    return sample, len(lookups) + len(topks) + len(joins)


# ---------------------------------------------------------------- client


def send(address: tuple[str, int], request: Request) -> tuple[int, bytes]:
    """One request on a fresh connection; (status, body)."""
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(request.wire)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    head, _, body = data.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        status = 0
    return status, body


def digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


@dataclass
class Record:
    request: Request
    due: float
    sent: float
    done: float
    status: int
    digest: bytes


def _send_recorded(address, request: Request, due: float, records: list,
                   error_log: list) -> None:
    sent = clock()
    try:
        status, body = send(address, request)
    except OSError as error:
        status, body = 0, b""
        error_log.append(f"{request.kind}: {error}")
    records.append(Record(request, due, sent, clock(), status, digest(body)))


def closed_loop(address, sample, seconds: float, clients: int, errors: list) -> list[Record]:
    """``clients`` connections, each sending its next request on reply."""
    records: list[Record] = []
    lock = threading.Lock()
    deadline = clock() + seconds

    def client():
        while clock() < deadline:
            with lock:
                request = sample()
            now = clock()
            _send_recorded(address, request, now, records, errors)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def open_loop(address, schedule: list[tuple[float, Request]], clients: int,
              errors: list) -> list[Record]:
    """Send each request at its due time (offset from now) on the first
    free connection; a request that finds none waits, and that wait counts
    in its latency."""
    records: list[Record] = []
    lock = threading.Lock()
    cursor = iter(schedule)
    start = clock()

    def client():
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            offset, request = item
            due = start + offset
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            _send_recorded(address, request, due, records, errors)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records, key=lambda record: record.due)


def make_schedule(sample, rate: float, seconds: float, rng: random.Random,
                  scrape_every: float) -> list[tuple[float, Request]]:
    """Poisson arrivals at ``rate`` per second, plus a /metrics scrape every
    ``scrape_every`` seconds as a monitor would send."""
    schedule, offset = [], rng.expovariate(rate)
    while offset < seconds:
        schedule.append((offset, sample()))
        offset += rng.expovariate(rate)
    ticks = int(seconds / scrape_every)
    schedule += [(scrape_every * (i + 1) - 1e-9, METRICS) for i in range(ticks)]
    return sorted(schedule, key=lambda item: item[0])


# ---------------------------------------------------------------- server


class Server:
    """``repro serve --segments`` in a child process via the launcher."""

    def __init__(self, segments_dir: str, spans_path: Optional[str] = None) -> None:
        command = [sys.executable, LAUNCHER]
        if spans_path is not None:
            command += ["--spans", spans_path]
        command += ["--", "--segments", segments_dir, "--port", "0"]
        self.spans_path = spans_path
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=common.ROOT
        )
        try:
            banner = self.process.stdout.readline()
            if " on http://" not in banner:
                raise RuntimeError(f"server did not start: {banner!r}")
            host_port = banner.split(" on http://", 1)[1].split()[0]
            host, port = host_port.rsplit(":", 1)
            self.address = (host, int(port))
            status, _ = send(self.address, get("healthz", {}))
            if status != 200:
                raise RuntimeError(f"healthz answered {status}")
        except BaseException:
            self.stop()
            raise

    def metrics(self) -> dict:
        status, body = send(self.address, METRICS)
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.process.pid)

    def stop(self) -> Optional[dict]:
        """Stop the server and wait for it; the spans it wrote, if traced."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        if self.spans_path is not None and os.path.exists(self.spans_path):
            return common.load_json(self.spans_path)
        return None


# ---------------------------------------------------------------- checks


def expected_digests(records: list[Record], kb) -> dict[bytes, bytes]:
    """What the in-process engine answers, per distinct request."""
    from repro.serving import QueryEngine
    from repro.serving.http import dumps

    engine = QueryEngine(kb)
    handlers = {"lookup": engine.lookup_json, "topk": engine.topk_json,
                "query": engine.query_json}
    expected = {}
    for record in records:
        request = record.request
        if request.kind in handlers and request.wire not in expected:
            expected[request.wire] = digest(dumps(handlers[request.kind](request.params)))
    return expected


def check_records(out: Outcome, records: list[Record], expected: dict) -> None:
    for record in records:
        request = record.request
        if record.status != 200:
            out.check(False, f"{request.kind} answered {record.status}")
        elif request.kind == "metrics":
            out.check(True, "")
        else:
            out.check(record.digest == expected[request.wire],
                      f"{request.kind} reply differs from the in-process engine: "
                      f"{request.wire[:120]!r}")


# ------------------------------------------------------------------ run


def _cache_delta(before: dict, after: dict) -> dict[str, float]:
    b, a = before["cache"], after["cache"]
    hits, misses = a["hits"] - b["hits"], a["misses"] - b["misses"]
    return {
        "serving.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.cache.evictions": a["evictions"] - b["evictions"],
        "serving.cache.negative_hits": a["negative_hits"] - b["negative_hits"],
    }


def server_layers(dump: dict) -> dict[str, float]:
    """Per-request layer times (ms) and counts from a traced server."""
    counters = dump["counters"]
    requests = counters.get("serving.requests", 0) or 1
    selfs, totals = {}, {}
    for name, start, end, child, _parent, _thread in dump["spans"]:
        selfs[name] = selfs.get(name, 0.0) + (end - start - child)
        totals[name] = totals.get(name, 0.0) + (end - start)
    queue_wait = counters.get("serving.queue_wait", 0.0)
    wall = totals.get("serving.http", 0.0) + queue_wait
    attribute({**selfs, "serving.queue_wait": queue_wait}, wall)
    per_request = 1000.0 / requests
    return {
        "serving.http_self_ms": selfs.get("serving.http", 0.0) * per_request,
        "serving.queue_wait_ms": queue_wait * per_request,
        "serving.engine_ms": totals.get("serving.engine", 0.0) * per_request,
        "kb.query.run_ms": totals.get("kb.query.run", 0.0) * per_request,
        "kb.segments.match_calls": counters.get("kb.segments.match_calls", 0.0) / requests,
        "kb.segments.records_read": counters.get("kb.segments.records_read", 0.0) / requests,
    }


def _setup(spec: dict):
    """World, KB, segment directory and a running server."""
    from repro.pipeline import emit_segments

    world, wiki = make_world(spec["world"])
    kb, _report = build_kb(world, wiki)
    segments_dir = common.work_dir("serve-segments")
    emit_segments(kb, segments_dir)
    return world, kb, segments_dir, Server(segments_dir)


def _backlog_ms(records: list[Record]) -> float:
    """Median lateness over the last tenth of one open-loop slice."""
    lateness = [(r.sent - r.due) * 1000.0 for r in records]
    return common.median(lateness[-max(len(lateness) // 10, 1):])


def run(ctx) -> Outcome:
    spec = ctx.workload
    mix = spec["mix"]
    clients = common.nproc()
    out = Outcome()
    setups, server = [], None
    try:
        for _ in range(spec["setup_repeats"]):
            if server is not None:
                server.stop()
            (world, kb, segments_dir, server), timing = common.timed(lambda: _setup(spec))
            setups.append(timing.scaled)
        f1 = kb_f1(kb, world)
        out.check(f1 >= ctx.config["kb_f1_floor"],
                  f"kb_f1 {f1:.4f} below the floor {ctx.config['kb_f1_floor']}")
        rng = random.Random(ctx.seed)
        sample, distinct = hot_requests(kb, world, mix, rng)
        phases = spec["phases"]
        errors: list[str] = []
        records: list[Record] = []

        def measure(target: Server, open_phase: bool = True) -> tuple[float, list, dict, dict]:
            """Warm up, then alternate closed-loop and open-loop slices, so
            that both sample the whole run and a slow spell of the host
            lands in a few slices, not in a whole phase.  Returns the
            median closed-loop rate of the slices, the open-loop records of
            each slice with the factor that scales its times to the
            reference host speed (:class:`common.Timing`), and /metrics
            before and after."""
            rounds = phases["rounds"]
            records.extend(closed_loop(target.address, sample,
                                       ctx.seconds * phases["warmup"], clients, errors))
            before = target.metrics()
            rates, opened = [], []
            for _ in range(rounds):
                closed, timing = common.timed(
                    lambda: closed_loop(target.address, sample,
                                        ctx.seconds * phases["closed"] / rounds,
                                        clients, errors),
                    common.host_speed_s)
                records.extend(closed)
                rates.append(len(closed) / timing.scaled)
                if open_phase:
                    schedule = make_schedule(sample, spec["offered_rate"],
                                             ctx.seconds * phases["open"] / rounds, rng,
                                             mix["scrape_every_s"])
                    sent, timing = common.timed(
                        lambda: open_loop(target.address, schedule, clients, errors),
                        common.host_speed_s)
                    records.extend(sent)
                    opened.append((sent, timing.scaled / timing.wall))
            return common.median(rates), opened, before, target.metrics()

        qps, slices, before, after = measure(server, open_phase=not ctx.trace)
        out.metrics["peak_rss_mb"] = server.peak_rss_mb()
        server.stop()
        server = None
        layers = {}
        if ctx.trace:
            spans_path = os.path.join(common.work_dir("serve-spans"), "spans.json")
            server = Server(segments_dir, spans_path)
            traced_qps, slices, before, after = measure(server)
            dump = server.stop()
            server = None
            layers = server_layers(dump)
            layers["trace.overhead_ratio"] = qps / traced_qps
    finally:
        if server is not None:
            server.stop()

    for error in errors[:5]:
        out.errors.append(error)
    check_records(out, records, expected_digests(records, kb))
    backlog_ms = max(_backlog_ms(sent) for sent, _ in slices)
    latencies = [(r.done - r.due) * 1000.0 * scale for sent, scale in slices
                 for r in sent if r.request.kind != "metrics"]
    opened = [record for sent, _ in slices for record in sent]
    lateness = [(r.sent - r.due) * 1000.0 for r in opened]
    late_p99 = common.percentile(lateness, 99.0)
    if backlog_ms > spec["late_limit_ms"]:
        out.invalid = (f"the generator fell behind its schedule: median lateness "
                       f"{backlog_ms:.1f} ms over the last tenth of an open-loop slice "
                       f"(limit {spec['late_limit_ms']} ms)")
    tail, percentile = common.tail(latencies)
    out.details.update(
        world=spec["world"], triples=len(kb), distinct_keys=distinct,
        cache_capacity=before["cache"]["capacity"], clients=clients,
        offered_rate=spec["offered_rate"], samples=len(latencies),
        tail_ms=tail, tail_percentile=percentile,
        p99_ms=common.percentile(latencies, 99.0), late_p99_ms=late_p99,
        final_lateness_ms=backlog_ms, requests=len(records),
    )
    if ctx.trace:
        out.metrics.update(layers)
        out.metrics.update(_cache_delta(before, after))
        out.metrics["loadgen.late_p99_ms"] = late_p99
        scrapes = [(r.done - r.sent) * 1000.0 for r in opened if r.request.kind == "metrics"]
        out.metrics["serving.metrics_scrape_ms"] = common.median(scrapes)
        return out
    out.metrics["setup_s"] = common.median(setups)
    out.metrics["kb_f1"] = f1
    out.metrics["op_p50_ms"] = common.median(latencies)
    out.metrics["throughput_per_s"] = qps
    return out
