"""``query_cold``: route lookups that always miss the route cache.

Closed loop, two connections, binary codec, one single-process server
on M3(16) with 82 node faults.  Each request is a small batch (sized by
:data:`~perfbench.inputs.COLD_BATCH`) of survivor pairs that never
repeat within the run, so every lookup runs the route search (five grid
floods per query at k = 2).  The server resolves routes on its event
loop, so one connection's batch waits behind the other's.

The end-to-end op is one request (one batch); ``items_per_s`` counts
queries.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.mesh import FaultSet, Mesh
from repro.mesh.serialization import faults_to_dict
from repro.service.client import RouteQueryClient
from repro.service.errors import ServiceError

from .. import inputs, spans
from ..checks import route_error
from ..common import (
    MIN_OPS, SETUP_REPEATS, Context, Deadline, Outcome, by_name, client_layers,
    generator_gc_paused, headline, median_or_zero, record_cpu, server_layers,
)
from ..layers import install_client, pair_rid
from ..program import Program, running

DIMS = inputs.QUERY_DIMS
ORDERS = [tuple(range(len(DIMS)))] * 2
CONNECTIONS = 2
#: Per-layer metrics of layers this workload does not touch: no
#: mutation reaches the server, and it runs unsharded.
UNTOUCHED = frozenset({
    "lamb.classes", "lamb.lambs", "ladder.rungs", "ladder.escalations",
    "ladder.first_rung_ratio", "store.hit_ratio", "compiler.cache_hit_ratio",
    "store.bytes_per_put", "relay_share", "worker_share", "router.retries",
    "route.replica_disagreements", "sim.step_share", "sim.deadlock_scan_share",
    "sim.route_cache_hit_ratio", "sim.cycles", "sim.stall_cycles", "sim.parks",
    "sim.wakes", "sim.delivered", "sim.avg_latency_cycles",
})


@dataclass
class Machine:
    """The query workloads' machine as the client knows it."""

    faults: set
    non_survivors: set
    survivors: List[Tuple[int, ...]]


def write_faults(ctx: Context) -> str:
    """The seeded fault set as a ``--load`` file for the program."""
    path = ctx.path("faults.json")
    record = faults_to_dict(FaultSet(Mesh(DIMS), inputs.query_faults(ctx.seed)))
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


async def machine(prog: Program, seed: int) -> Machine:
    """Learn the lamb set by re-sending the serving config (a
    ``current`` cache hit: no epoch change, no compile)."""
    faults = set(inputs.query_faults(seed))
    client = await prog.client()
    try:
        reply = await client.compile(FaultSet(Mesh(DIMS), sorted(faults)))
    finally:
        await client.close()
    if reply["source"] != "current":
        raise RuntimeError(f"serving config was not current: {reply['source']}")
    non_survivors = faults | {tuple(v) for v in reply["lamb_nodes"]}
    non_survivors |= {tuple(v) for v in reply["quarantined"]}
    return Machine(faults, non_survivors, inputs.survivors(DIMS, non_survivors))


@dataclass
class Record:
    #: Client seconds of every request.
    request_s: List[float] = field(default_factory=list)
    #: The pairs of every request, in the order of ``request_s``.
    batches: List[list] = field(default_factory=list)
    queries: int = 0
    start: float = 0.0
    wall_s: float = 0.0


async def drive(
    prog: Program, m: Machine, seed: int, out: Outcome, stop: Deadline,
) -> Record:
    """Closed-loop requests on every connection until ``stop``; ``stop``
    with an op count caps the total requests across connections.  Both
    connections draw from one stream of distinct pairs."""
    pairs = inputs.distinct_pairs(seed, m.survivors)
    rec = Record()
    issued = 0
    sizes = inputs.batch_sizes(seed, inputs.COLD_BATCH)

    async def request(client: RouteQueryClient, timed: bool = True) -> None:
        batch = [next(pairs) for _ in range(next(sizes))]
        out.attempted += len(batch)
        t0 = time.perf_counter()
        try:
            replies = await client.query_batch(batch)
        except ServiceError as exc:
            out.fail(f"request: {exc}")
            return
        dt = time.perf_counter() - t0
        for (s, d), r in zip(batch, replies):
            err = route_error(r, s, d, m.faults, m.non_survivors, ORDERS)
            if err:
                out.fail(f"{s}->{d}: {err}")
        if timed:
            rec.request_s.append(dt)
            rec.batches.append(batch)
            rec.queries += len(batch)

    async def connection() -> None:
        nonlocal issued
        client = await prog.client()
        try:
            # Untimed: connection set-up and the server's lazy imports.
            await request(client, timed=False)
            while not stop.done(issued, len(rec.request_s) >= MIN_OPS):
                issued += 1
                await request(client)
        finally:
            await client.close()

    rec.start = time.perf_counter()
    with generator_gc_paused():
        await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    rec.wall_s = time.perf_counter() - rec.start
    return rec


def _program(ctx: Context, faults_path: str, tag: str, traced: bool = False) -> Program:
    return Program(
        ctx.root, ctx.run_dir,
        ["serve", "--load", faults_path, "--rounds", "2", "--port", "0"],
        traced="server" if traced else None,
        spans_path=ctx.path(f"spans-{tag}.jsonl"),
    )


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
        m = await machine(prog, ctx.seed)
        rec = await drive(prog, m, ctx.seed, out, Deadline(seconds=ctx.seconds))
        rss = prog.peak_rss_mb()
    headline(out, setup, rec.request_s, rec.queries, rec.wall_s, rss)
    return out


async def _traced(ctx: Context, out: Outcome, faults_path: str) -> None:
    async with running(_program(ctx, faults_path, "plain")) as prog:
        m = await machine(prog, ctx.seed)
        cpu0, lg0 = prog.cpu_by_pid(), time.process_time()
        plain = await drive(prog, m, ctx.seed, out,
                            Deadline(seconds=ctx.seconds / 2, tails=False))
        cpu1, lg1 = prog.cpu_by_pid(), time.process_time()
    traced_prog = _program(ctx, faults_path, "traced", traced=True)
    tracer = spans.Tracer()
    async with running(traced_prog) as prog:
        m = await machine(prog, ctx.seed)
        install_client(tracer)
        try:
            traced = await drive(prog, m, ctx.seed, out,
                                 Deadline(ops=len(plain.request_s)))
        finally:
            tracer.restore()
    client_layers(out, tracer.spans, traced.queries, traced.wall_s)
    recorded = server_layers(out, spans.load(traced_prog.spans_path),
                             traced.start, traced.wall_s)
    route_s: Dict[str, float] = {
        s.rid: s.seconds for s in by_name(recorded, "compiler.route")
    }
    wait = [
        (dt - sum(route_s.get(pair_rid(s, d), 0.0) for s, d in batch)) * 1e3
        for dt, batch in zip(traced.request_s, traced.batches)
    ]
    out.put("request.wait_ms", median_or_zero(wait), "ms", len(wait))
    record_cpu(out, cpu0, cpu1, plain.wall_s, lg1 - lg0)
    out.put("trace.overhead_ratio", traced.wall_s / plain.wall_s, "ratio",
            len(traced.request_s))

