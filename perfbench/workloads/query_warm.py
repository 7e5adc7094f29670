"""``query_warm``: route lookups that always hit, through the sharded plane.

The query machine (M3(16), 82 node faults) behind ``serve --shards 2``:
a router process in front of two replica worker processes.  Closed
loop, two connections, binary codec, pipelined batches of about 100
pairs (:data:`~perfbench.inputs.WARM_BATCH`) drawn from a bounded pool
that every replica resolves before the clock starts.  Lookups are
table hits, so the client, wire, router relay, worker dispatch and
reply encode dominate.  This is the control for any lookup
optimisation: it should not move.

Worker processes are spawned by the router, so the benchmark's spans
cannot reach them.  Worker-side numbers come from each worker's
``stats`` reply.  ``stats`` through the router reaches one worker per
call; the benchmark sends one ``stats`` per worker back to back on one
connection while nothing else is in flight, so the router's round
robin over its in-sync workers hands each call to a different worker.
It checks that every worker is in sync and that the replies differ.

The end-to-end op is one request (one batch); ``items_per_s`` counts
queries.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.service.client import RouteQueryClient
from repro.service.errors import ServiceError

from .. import inputs, spans
from ..checks import route_error
from ..common import (
    MIN_OPS, SETUP_REPEATS, Context, Deadline, Outcome, by_name, client_layers,
    generator_gc_paused, headline, median_or_zero, record_cpu,
)
from ..layers import install_client
from ..program import Program, running
from .query_cold import ORDERS, Machine, machine, write_faults

SHARDS = 2
CONNECTIONS = 2
#: Per-layer metrics of layers this workload does not touch while it
#: measures: every lookup is a table hit in an untraced worker, and
#: no mutation is sent.
UNTOUCHED = frozenset({
    "lamb.partition_share", "lamb.reachability_share", "lamb.wvc_share",
    "grids_share", "store_share", "digest_share", "route_search_share",
    "turns_share", "compiler.self_share", "lamb.classes", "lamb.lambs",
    "ladder.rungs", "ladder.escalations", "ladder.first_rung_ratio",
    "store.hit_ratio", "compiler.cache_hit_ratio", "store.bytes_per_put",
    "lookup.miss_ratio", "route_search.floods", "sim.step_share",
    "sim.deadlock_scan_share", "sim.route_cache_hit_ratio", "sim.cycles",
    "sim.stall_cycles", "sim.parks", "sim.wakes", "sim.delivered",
    "sim.avg_latency_cycles",
})
#: Every reply field :func:`~perfbench.checks.route_error` reads.
_ROUTE_FIELDS = ("ok", "error", "source", "dest", "intermediates", "hops",
                 "rounds_used")


class RouteChecker:
    """:func:`~perfbench.checks.route_error` with a memo: pool pairs
    repeat, and each distinct (pair, route) is walked once."""

    def __init__(self, m: Machine) -> None:
        self.m = m
        self._valid: Set[Tuple] = set()

    def error(self, s: Tuple, d: Tuple, reply: Dict[str, Any]):
        key = (s, d, repr([reply.get(k) for k in _ROUTE_FIELDS]))
        if key in self._valid:
            return None
        err = route_error(reply, s, d, self.m.faults, self.m.non_survivors, ORDERS)
        if err is None:
            self._valid.add(key)
        return err


async def worker_stats(client: RouteQueryClient, out: Outcome) -> List[Dict]:
    """One ``stats`` reply per worker (see the module docstring)."""
    router = (await client.request("router_stats"))["router"]
    if router["in_sync"] != SHARDS:
        out.fail(f"only {router['in_sync']} of {SHARDS} workers in sync")
    replies = [(await client.stats())["stats"] for _ in range(SHARDS)]
    if any(a == b for i, a in enumerate(replies) for b in replies[i + 1:]):
        out.fail("two stats replies came from the same worker")
    return replies


async def warm_up(
    client: RouteQueryClient, pool: List[Tuple], check: RouteChecker, out: Outcome,
) -> int:
    """Resolve the pool on both replicas -- in pool order on one, in
    reverse order on the other -- and count the pairs whose replies
    differ.  Routes are a pure function of the config, so any
    disagreement is order-dependent state in the program."""
    disagreements = 0
    for at in range(0, len(pool), inputs.WARM_UP_CHUNK):
        chunk = pool[at: at + inputs.WARM_UP_CHUNK]
        first = await client.query_batch(chunk)
        second = await client.query_batch(chunk[::-1])
        out.attempted += 2 * len(chunk)
        for (s, d), a, b in zip(chunk, first, second[::-1]):
            for r in (a, b):
                err = check.error(s, d, r)
                if err:
                    out.fail(f"warm-up {s}->{d}: {err}")
            if a.get("intermediates") != b.get("intermediates"):
                disagreements += 1
    return disagreements


@dataclass
class Record:
    request_s: List[float] = field(default_factory=list)
    queries: int = 0
    start: float = 0.0
    wall_s: float = 0.0
    loadgen_cpu_s: float = 0.0


async def drive(
    prog: Program, pool: List[Tuple], batches: Iterator[List[int]],
    check: RouteChecker, out: Outcome, stop: Deadline,
) -> Record:
    rec = Record()
    issued = 0
    clients = [await prog.client() for _ in range(CONNECTIONS)]

    async def connection(client: RouteQueryClient) -> None:
        nonlocal issued
        while not stop.done(issued, len(rec.request_s) >= MIN_OPS):
            issued += 1
            batch = [pool[i] for i in next(batches)]
            out.attempted += len(batch)
            t0 = time.perf_counter()
            try:
                replies = await client.query_batch(batch)
            except ServiceError as exc:
                out.fail(f"request: {exc}")
                continue
            rec.request_s.append(time.perf_counter() - t0)
            rec.queries += len(batch)
            for (s, d), r in zip(batch, replies):
                err = check.error(s, d, r)
                if err:
                    out.fail(f"{s}->{d}: {err}")

    try:
        with generator_gc_paused():
            cpu0 = time.process_time()
            rec.start = time.perf_counter()
            await asyncio.gather(*(connection(c) for c in clients))
            rec.wall_s = time.perf_counter() - rec.start
            rec.loadgen_cpu_s = time.process_time() - cpu0
    finally:
        for c in clients:
            await c.close()
    return rec


def _program(ctx: Context, faults_path: str, tag: str, traced: bool = False) -> Program:
    return Program(
        ctx.root, ctx.run_dir,
        ["serve", "--load", faults_path, "--rounds", "2", "--port", "0",
         "--shards", str(SHARDS), "--store", ctx.path(f"store-{tag}")],
        traced="router" if traced else None,
        spans_path=ctx.path(f"spans-{tag}.jsonl"),
    )


@dataclass
class Session:
    """A warmed program: its machine, pool and per-worker stats."""

    m: Machine
    pool: List[Tuple]
    check: RouteChecker
    disagreements: int
    control: RouteQueryClient


async def open_session(prog: Program, ctx: Context, out: Outcome) -> Session:
    m = await machine(prog, ctx.seed)
    pool = inputs.warm_pool(ctx.seed, m.survivors)
    check = RouteChecker(m)
    control = await prog.client()
    disagreements = await warm_up(control, pool, check, out)
    return Session(m, pool, check, disagreements, control)


async def run(ctx: Context) -> Outcome:
    out = Outcome()
    faults_path = write_faults(ctx)
    if ctx.trace:
        await _traced(ctx, out, faults_path)
        return out
    setup = []
    for r in range(SETUP_REPEATS - 1):
        async with running(_program(ctx, faults_path, f"setup{r}")) as prog:
            setup.append(prog.setup_s)
    async with running(_program(ctx, faults_path, "run")) as prog:
        setup.append(prog.setup_s)
        sess = await open_session(prog, ctx, out)
        try:
            rec = await drive(prog, sess.pool, inputs.warm_batches(ctx.seed, len(sess.pool)),
                              sess.check, out, Deadline(seconds=ctx.seconds))
            await worker_stats(sess.control, out)
        finally:
            await sess.control.close()
        rss = prog.peak_rss_mb()
    headline(out, setup, rec.request_s, rec.queries, rec.wall_s, rss)
    return out


async def _traced(ctx: Context, out: Outcome, faults_path: str) -> None:
    async with running(_program(ctx, faults_path, "plain")) as prog:
        sess = await open_session(prog, ctx, out)
        try:
            before = await worker_stats(sess.control, out)
            retries0 = (await sess.control.request("router_stats"))["router"]["read_retries"]
            cpu0 = prog.cpu_by_pid()
            plain = await drive(prog, sess.pool, inputs.warm_batches(ctx.seed, len(sess.pool)),
                                sess.check, out,
                                Deadline(seconds=ctx.seconds / 2, tails=False))
            cpu1 = prog.cpu_by_pid()
            after = await worker_stats(sess.control, out)
            retries1 = (await sess.control.request("router_stats"))["router"]["read_retries"]
        finally:
            await sess.control.close()
    traced_prog = _program(ctx, faults_path, "traced", traced=True)
    tracer = spans.Tracer()
    async with running(traced_prog) as prog:
        sess = await open_session(prog, ctx, out)
        await sess.control.close()
        install_client(tracer)
        try:
            traced = await drive(prog, sess.pool, inputs.warm_batches(ctx.seed, len(sess.pool)),
                                 sess.check, out, Deadline(ops=len(plain.request_s)))
        finally:
            tracer.restore()
    q = traced.queries
    enc = by_name(tracer.spans, "wire.encode")
    dec = by_name(tracer.spans, "wire.decode")
    out.put("wire.encode_us", sum(s.seconds for s in enc) * 1e6 / q, "us", len(enc))
    out.put("wire.decode_us", sum(s.seconds for s in dec) * 1e6 / q, "us", len(dec))
    client_layers(out, tracer.spans, q, traced.wall_s)
    relay = router_relay_ms(spans.load(traced_prog.spans_path), traced.start)
    out.put("relay.ms", median_or_zero(relay), "ms", len(relay))
    out.put("relay_share", sum(relay) / 1e3 / traced.wall_s, "ratio", len(relay))
    n = sum(a["query_latency"]["count"] - b["query_latency"]["count"]
            for a, b in zip(after, before))
    busy = sum(
        a["query_latency"]["count"] * a["query_latency"]["mean_s"]
        - b["query_latency"]["count"] * b["query_latency"]["mean_s"]
        for a, b in zip(after, before)
    )
    out.put("worker.query_us", busy * 1e6 / n if n else 0.0, "us", n)
    out.put("worker_share", busy / plain.wall_s, "ratio", n)
    if n != plain.queries:
        out.fail(f"workers answered {n} queries, the client sent {plain.queries}")
    out.put("router.retries", retries1 - retries0, "count", len(plain.request_s))
    record_cpu(out, cpu0, cpu1, plain.wall_s, plain.loadgen_cpu_s)
    out.put("route.replica_disagreements", sess.disagreements, "count", len(sess.pool))
    out.put("trace.overhead_ratio", traced.wall_s / plain.wall_s, "ratio",
            len(traced.request_s))


def router_relay_ms(recorded: List[spans.Span], since: float) -> List[float]:
    """Router time per client read message outside its worker round
    trip, for messages that arrived after ``since`` (``perf_counter``
    is the system-wide monotonic clock, so the router's and the
    benchmark's readings compare)."""
    kids = spans.descendants(recorded)
    out = []
    for s in by_name(recorded, "router.message"):
        trips = [c for c in kids[s.sid] if c.name == "router.roundtrip"]
        if s.start >= since and len(trips) == 1:
            out.append((s.seconds - trips[0].seconds) * 1e3)
    return out
