"""``reconfigure``: one control client drives fault arrivals and repairs
into a single-process server on M3(32) with 2-round XYZ routing.

Closed loop, one connection, binary codec.  Every op (fresh compile,
delta, repair) activates an epoch and is followed by one probe batch of
route queries pinned to that epoch.  Nearly all server time goes to the
lamb pipeline, the degradation ladder, the grids and the store, which
is what this workload exists to measure.

The end-to-end op is a mutation that compiles (a fresh compile or a
delta); ``items_per_s`` counts activations of every kind.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set

from repro.mesh import FaultSet, Mesh
from repro.service.errors import ServiceError

from .. import inputs, percentiles, spans
from ..checks import route_error
from ..common import (
    MIN_OPS, SETUP_REPEATS, Context, Deadline, Outcome, by_name, client_layers,
    generator_gc_paused, headline, mean_or_zero, median_or_zero, record_cpu,
    server_layers,
)
from ..layers import install_client
from ..program import Program, running

DIMS = inputs.RECONFIGURE_DIMS
ORDERS = [tuple(range(len(DIMS)))] * 2
#: Per-layer metrics of layers this workload does not touch.
UNTOUCHED = frozenset({
    "relay_share", "worker_share", "router.retries",
    "route.replica_disagreements", "sim.step_share", "sim.deadlock_scan_share",
    "sim.route_cache_hit_ratio", "sim.cycles", "sim.stall_cycles", "sim.parks",
    "sim.wakes", "sim.delivered", "sim.avg_latency_cycles",
})
#: Tail of the compile and delta times in the table.  A run yields
#: at least 50 of each; p75 needs 40 samples to have ten beyond it.
TAIL = 0.75
#: Mutations over which the traced run sums its exact counts (lamb
#: classes, lambs); the traced replay always runs at least these.
EXACT_MUTATIONS = 10
#: ``peak_rss_mb`` is read once this many episodes are done -- a fixed
#: amount of work (four blocks of fault levels; a run always gets that
#: far, see :func:`supported`), since the compiler keeps every activated
#: artifact and a time-bound reading would charge a faster program for
#: caching more.
RSS_AFTER_EPISODES = 4 * len(inputs.FRESH_LEVELS)


def cli_args(store_dir: str) -> List[str]:
    return [
        "serve", "--mesh", "x".join(map(str, DIMS)), "--rounds", "2",
        "--port", "0", "--store", store_dir,
    ]


@dataclass
class Record:
    """Raw samples of one driven phase."""

    compile_s: List[float] = field(default_factory=list)
    delta_s: List[float] = field(default_factory=list)
    reactivate_s: List[float] = field(default_factory=list)
    first_query_s: List[float] = field(default_factory=list)
    #: Client-side time of every mutation, in order.
    mutation_s: List[float] = field(default_factory=list)
    #: Seconds since the phase began at the end of each op.
    elapsed: List[float] = field(default_factory=list)
    #: ``perf_counter`` when the phase began.
    start: float = 0.0
    lambs: List[int] = field(default_factory=list)
    escalations: int = 0
    rss_mb: float = 0.0


def supported(rec: Record) -> bool:
    """Whether the reported tails have ten samples beyond them."""
    need = percentiles.min_samples(TAIL)
    return (len(rec.compile_s) >= need and len(rec.delta_s) >= need
            and len(rec.compile_s) + len(rec.delta_s) >= MIN_OPS)


async def drive(prog: Program, seed: int, out: Outcome, stop: Deadline) -> Record:
    mesh = Mesh(DIMS)
    rec = Record()
    lambs_of: Dict[FrozenSet, Set] = {}
    client = await prog.client()
    t_start = rec.start = time.perf_counter()
    try:
        for i, op in enumerate(inputs.reconfigure_ops(seed)):
            if stop.done(i, supported(rec)):
                break
            if op["episode"] == RSS_AFTER_EPISODES and not rec.rss_mb:
                rec.rss_mb = prog.peak_rss_mb()
            faults = op["faults"]
            if op["kind"] == "delta":
                call = client.delta(node_faults=op["new"])
            else:
                call = client.compile(FaultSet(mesh, sorted(faults)))
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                reply = await call
            except ServiceError as exc:
                out.fail(f"{op['kind']} #{i}: {exc}")
                rec.mutation_s.append(time.perf_counter() - t0)
                continue
            dt = time.perf_counter() - t0
            rec.mutation_s.append(dt)
            hit = reply["source"] != "compiled"
            if op["kind"] == "delta":
                rec.delta_s.append(dt)
            elif op["kind"] == "compile":
                rec.compile_s.append(dt)
            elif hit:
                rec.reactivate_s.append(dt)
            if hit != (op["kind"] == "repair"):
                # Only after a ladder escalation changed the digests.
                print(f"note: {op['kind']} #{i} source {reply['source']}",
                      file=sys.stderr)
            rec.lambs.append(reply["lambs"])
            rec.escalations += reply["escalated_rounds"] > 0
            lambs = {tuple(v) for v in reply["lamb_nodes"]}
            quarantined = {tuple(v) for v in reply["quarantined"]}
            if reply["faults"] != len(faults | quarantined):
                out.fail(f"op #{i}: server holds {reply['faults']} faults, "
                         f"client sent {len(faults)}")
            if lambs & faults:
                out.fail(f"op #{i}: a lamb is faulty")
            if lambs_of.setdefault(faults, lambs) != lambs:
                out.fail(f"op #{i}: lamb set changed for a repeated config")
            non_survivors = set(faults) | lambs | quarantined
            pairs = inputs.probe_pairs(seed, i, DIMS, non_survivors)
            out.attempted += len(pairs)
            t0 = time.perf_counter()
            try:
                replies = await client.query_batch(pairs, epoch=reply["epoch"])
            except ServiceError as exc:
                out.fail(f"probe #{i}: {exc}")
                continue
            rec.first_query_s.append(time.perf_counter() - t0)
            rec.elapsed.append(time.perf_counter() - t_start)
            for (s, d), r in zip(pairs, replies):
                err = route_error(r, s, d, set(faults), non_survivors, ORDERS)
                if err:
                    out.fail(f"probe #{i} {s}->{d}: {err}")
        if not rec.rss_mb:
            rec.rss_mb = prog.peak_rss_mb()
    finally:
        await client.close()
    return rec


def _program(ctx: Context, tag: str, traced: bool = False) -> Program:
    return Program(
        ctx.root, ctx.run_dir, cli_args(ctx.path(f"store-{tag}")),
        traced="server" if traced else None,
        spans_path=ctx.path(f"spans-{tag}.jsonl"),
    )


async def run(ctx: Context) -> Outcome:
    out = Outcome()
    if ctx.trace:
        await _traced(ctx, out)
        return out
    setup = []
    for r in range(SETUP_REPEATS - 1):
        async with running(_program(ctx, f"setup{r}")) as prog:
            setup.append(prog.setup_s)
    async with running(_program(ctx, "run")) as prog:
        setup.append(prog.setup_s)
        with generator_gc_paused():
            rec = await drive(prog, ctx.seed, out, Deadline(seconds=ctx.seconds))
    headline(out, setup, rec.compile_s + rec.delta_s, len(rec.mutation_s),
             rec.elapsed[-1], rec.rss_mb)
    out.timing_ms("compile_ms", rec.compile_s, TAIL)
    out.timing_ms("delta_ms", rec.delta_s, TAIL)
    out.timing_ms("reactivate_ms", rec.reactivate_s)
    out.timing_ms("first_query_ms", rec.first_query_s)
    return out


async def _traced(ctx: Context, out: Outcome) -> None:
    async with running(_program(ctx, "plain")) as prog:
        cpu0, lg0 = prog.cpu_by_pid(), time.process_time()
        with generator_gc_paused():
            plain = await drive(prog, ctx.seed, out,
                                Deadline(seconds=ctx.seconds / 2, tails=False))
        record_cpu(out, cpu0, prog.cpu_by_pid(), plain.elapsed[-1],
                   time.process_time() - lg0)
    n = max(len(plain.mutation_s), EXACT_MUTATIONS)
    traced_prog = _program(ctx, "traced", traced=True)
    tracer = spans.Tracer()
    async with running(traced_prog) as prog:
        install_client(tracer)
        try:
            with generator_gc_paused():
                traced = await drive(prog, ctx.seed, out, Deadline(ops=n))
        finally:
            tracer.restore()
    wall = traced.elapsed[-1]
    client_layers(out, tracer.spans, len(traced.mutation_s), wall)
    layers(out, server_layers(out, spans.load(traced_prog.spans_path),
                              traced.start, wall), traced)
    k = min(len(plain.elapsed), len(traced.elapsed))
    out.put("trace.overhead_ratio",
            traced.elapsed[k - 1] / plain.elapsed[k - 1], "ratio", k)


def layers(out: Outcome, recorded: List[spans.Span], rec: Record) -> None:
    """Per-layer metrics of the traced phase's mutations."""
    kids = spans.descendants(recorded)
    self_s = spans.self_times(recorded)
    roots = sorted(
        (s for s in recorded
         if s.name in ("compiler.compile", "compiler.delta") and not s.parent),
        key=lambda s: int(s.rid.split(":")[1]),
    )
    misses = [r for r in roots if any(c.name == "ladder" for c in kids[r.sid])]

    def per_miss_ms(name: str, among=misses) -> List[float]:
        return [sum(c.seconds for c in kids[r.sid] if c.name == name) * 1e3
                for r in among]

    compiles = [r for r in misses if r.name == "compiler.compile"]
    deltas = [r for r in misses if r.name == "compiler.delta"]
    n = len(misses)
    out.put("lamb.partition_ms", median_or_zero(per_miss_ms("lamb.partition")), "ms", n)
    out.put("lamb.reachability_ms",
            median_or_zero(per_miss_ms("lamb.reachability")), "ms", n)
    out.put("lamb.wvc_ms", median_or_zero(per_miss_ms("lamb.wvc")), "ms", n)
    exact = roots[:EXACT_MUTATIONS]
    runs = [c for r in exact for c in kids[r.sid]
            if c.name == "lamb" and "classes" in c.attrs]
    out.put("lamb.classes", sum(c.attrs["classes"] for c in runs), "count", len(runs))
    out.put("lamb.lambs", sum(rec.lambs[:EXACT_MUTATIONS]), "count",
            min(len(rec.lambs), EXACT_MUTATIONS))
    rungs = [sum(c.name == "lamb" for c in kids[r.sid]) for r in misses]
    out.put("ladder.rungs", mean_or_zero(rungs), "count", n)
    out.put("ladder.escalations", rec.escalations, "count", len(rec.lambs))
    out.put("ladder.first_rung_ratio",
            sum(x == 1 for x in rungs) / n if n else 0.0, "ratio", n)
    out.put("grids.build_ms",
            median_or_zero(per_miss_ms("grids.build", compiles)), "ms", len(compiles))
    out.put("grids.clone_ms",
            median_or_zero(per_miss_ms("grids.clone", deltas)), "ms", len(deltas))
    out.put("grids.add_faults_ms",
            median_or_zero(per_miss_ms("grids.add_faults", deltas)), "ms", len(deltas))
    gets = by_name(recorded, "store.get")
    puts = by_name(recorded, "store.put")
    digests = by_name(recorded, "digest")
    out.put("store.get_ms", median_or_zero([s.seconds * 1e3 for s in gets]), "ms", len(gets))
    out.put("store.hit_ratio",
            sum(s.attrs["hit"] for s in gets) / len(gets) if gets else 0.0,
            "ratio", len(gets))
    out.put("compiler.cache_hit_ratio",
            (len(roots) - n) / len(roots) if roots else 0.0, "ratio", len(roots))
    out.put("digest_ms", median_or_zero([s.seconds * 1e3 for s in digests]),
            "ms", len(digests))
    out.put("store.put_ms", median_or_zero([s.seconds * 1e3 for s in puts]), "ms", len(puts))
    out.put("store.bytes_per_put",
            mean_or_zero([s.attrs.get("bytes", 0) for s in puts]), "B", len(puts))
    out.put("compiler.self_ms",
            median_or_zero([self_s[r.sid] * 1e3 for r in misses]), "ms", n)
    transport = [(c - r.seconds) * 1e3 for c, r in zip(rec.mutation_s, roots)]
    out.put("mutation.transport_ms", median_or_zero(transport), "ms", len(transport))
