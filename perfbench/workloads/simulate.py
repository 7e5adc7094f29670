"""``simulate``: an offline wormhole simulation job, run in-process.

M2(16) with 8 node faults, its lamb set, 2-round XY routing on 2
virtual channels, default step engine.  Traffic is one fixed
derangement of the survivors, 16-flit messages, sent again in
:data:`~perfbench.inputs.SIM_WAVES` waves: each wave is injected at
once and simulated until it has drained, so the network stays below
saturation (waves 60 cycles apart drive the average latency into the
thousands).  The route cache keeps route search to the first wave, so
the step loop dominates.

The end-to-end op is one wave after a job's first (send and run from
the route cache: the first wave of a job also builds its routes, and
at one wave in ten it would sit on the p90 boundary); ``items_per_s``
counts delivered messages per second of send and run of every wave.

How fast a job simulates depends on how congested its derangement is,
so every job of a run takes its own seeded pattern (fault set and
derangement), and a run averages over as many patterns as it has jobs.
Every wave of a job must take the same number of simulated cycles, and
a job replayed in the traced run must simulate exactly what it did.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core import find_lamb_set
from repro.mesh import FaultSet, Mesh
from repro.routing import repeated, xy
from repro.wormhole import WormholeSimulator

from .. import inputs, spans
from ..checks import hops_error
from ..common import (
    MIN_OPS, Context, Deadline, Outcome, by_name, headline, mean_or_zero,
    put_share,
)
from ..layers import install_simulator
from ..program import peak_rss_mb

#: Patterns over which the traced run sums its exact lamb counts.
EXACT_PATTERNS = 4
#: Per-layer metrics of layers this workload does not touch: no
#: service, store, compiler, ladder or load generator runs.
UNTOUCHED = frozenset({
    "store_share", "digest_share", "turns_share", "compiler.self_share",
    "wire_share", "wire.bytes_per_item", "relay_share", "worker_share",
    "ladder.rungs", "ladder.escalations", "ladder.first_rung_ratio",
    "store.hit_ratio", "compiler.cache_hit_ratio", "store.bytes_per_put",
    "lookup.miss_ratio", "router.retries", "route.replica_disagreements",
    "loadgen.busy_ratio",
})
#: Simulated cycles one wave may take before the run counts as stuck.
_MAX_WAVE_CYCLES = 50_000
#: Set-up is a few milliseconds and its cost depends on the fault set
#: (the lamb computation), so ``setup_s`` is the median over this many
#: seeded fault sets.
SETUP_PATTERNS = 64


@dataclass
class Job:
    pattern: int
    #: Send plus run seconds of every wave.
    wave_s: List[float] = field(default_factory=list)
    #: Simulated cycles of every wave.
    wave_cycles: List[int] = field(default_factory=list)
    send_s: float = 0.0
    run_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


def setup(seed: int, pattern: int):
    """The job's set-up: fault set, lamb set, survivors, traffic and a
    fresh simulator."""
    faults = FaultSet(Mesh(inputs.SIM_DIMS), inputs.sim_faults(seed, pattern))
    orderings = repeated(xy(), 2)
    lamb = find_lamb_set(faults, orderings)
    survivors = lamb.survivors()
    perm = inputs.derangement(seed, pattern, len(survivors))
    return (faults, orderings, lamb, survivors, perm,
            WormholeSimulator(faults, orderings))


def job(seed: int, pattern: int, out: Outcome) -> Job:
    """One job: set-up, then :data:`~perfbench.inputs.SIM_WAVES` waves."""
    faults, orderings, _, survivors, perm, sim = setup(seed, pattern)
    done = Job(pattern)
    for _ in range(inputs.SIM_WAVES):
        start_cycle = sim.cycle
        t0 = time.perf_counter()
        for i, src in enumerate(survivors):
            sim.send(src, survivors[perm[i]], inputs.SIM_FLITS)
        t1 = time.perf_counter()
        stats = sim.run(max_cycles=sim.cycle + _MAX_WAVE_CYCLES)  # a deadlock raises
        t2 = time.perf_counter()
        done.wave_s.append(t2 - t0)
        done.wave_cycles.append(sim.cycle - start_cycle)
        done.send_s += t1 - t0
        done.run_s += t2 - t1
    out.attempted += len(sim.messages)
    faulty = set(faults.node_faults)
    checked = set()
    for m in sim.messages.values():
        if not m.is_delivered:
            out.fail(f"message {m.msg_id} {m.source}->{m.dest} not delivered")
        if id(m.hops) not in checked:
            checked.add(id(m.hops))
            err = hops_error(m.hops, m.source, m.dest, faulty, orderings.k)
            if err:
                out.fail(f"message {m.msg_id}: {err}")
    if not stats.all_accounted:
        out.fail(f"{stats.delivered} of {len(sim.messages)} accounted for")
    if len(set(done.wave_cycles)) != 1:
        out.fail(f"pattern {pattern}: waves took {done.wave_cycles} cycles")
    done.counts = {
        "sim.cycles": stats.cycles,
        "sim.stall_cycles": sim.stall_cycles,
        "sim.parks": sim.park_events,
        "sim.wakes": sim.wake_events,
        "sim.delivered": stats.delivered,
        "sim.avg_latency_cycles": stats.avg_latency,
    }
    return done


def jobs(seed: int, out: Outcome, stop: Deadline) -> List[Job]:
    """Jobs on patterns 0, 1, 2, ... until ``stop``; a budgeted run
    also waits for ``op_ms_p90`` support."""
    done: List[Job] = []
    while not done or not stop.done(
        len(done), sum(len(j.wave_s) - 1 for j in done) >= MIN_OPS
    ):
        done.append(job(seed, len(done), out))
    return done


async def run(ctx: Context) -> Outcome:
    out = Outcome()
    if ctx.trace:
        _traced(ctx, out)
        return out
    done = jobs(ctx.seed, out, Deadline(seconds=ctx.seconds))
    # After the jobs, on a warm process (timed first, these few-ms
    # set-ups varied by up to 1.8x from run to run), with the jobs'
    # leftovers frozen out of the collector's way.
    setups = []
    gc.collect()
    gc.freeze()
    try:
        for i in range(SETUP_PATTERNS):
            t0 = time.perf_counter()
            setup(ctx.seed, i)
            setups.append(time.perf_counter() - t0)
    finally:
        gc.unfreeze()
    headline(out, setups, [s for j in done for s in j.wave_s[1:]],
             int(sum(j.counts["sim.delivered"] for j in done)),
             sum(j.send_s + j.run_s for j in done), peak_rss_mb(os.getpid()))
    out.put("sim_cycles_per_s",
            sum(j.counts["sim.cycles"] for j in done) / sum(j.run_s for j in done),
            "1/s", len(done))
    return out


def _traced(ctx: Context, out: Outcome) -> None:
    t0, cpu0 = time.perf_counter(), time.process_time()
    plain = jobs(ctx.seed, out, Deadline(seconds=ctx.seconds / 2, tails=False))
    plain_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0
    tracer = spans.Tracer()
    install_simulator(tracer)
    try:
        t0 = time.perf_counter()
        traced = [job(ctx.seed, i, out) for i in range(len(plain))]
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    for a, b in zip(plain, traced):
        if a.counts != b.counts:
            out.fail(f"pattern {a.pattern} simulated differently when traced")
    recorded = tracer.spans
    kids = spans.descendants(recorded)
    self_s = spans.self_times(recorded)
    for name in ("partition", "reachability", "wvc"):
        put_share(out, f"lamb.{name}_share", by_name(recorded, f"lamb.{name}"),
                  traced_s)
    put_share(out, "grids_share",
              by_name(recorded, "grids.build", "grids.clone", "grids.add_faults"),
              traced_s)
    builds = by_name(recorded, "sim.route_build")
    put_share(out, "route_search_share", builds, traced_s)
    out.put("route_search.floods",
            mean_or_zero([sum(c.name == "flood" for c in kids[b.sid]) for b in builds]),
            "count", len(builds))
    runs = by_name(recorded, "sim.run")
    scans = by_name(recorded, "sim.deadlock_scan")
    out.put("sim.step_share", sum(self_s[s.sid] for s in runs) / traced_s,
            "ratio", len(runs))
    put_share(out, "sim.deadlock_scan_share", scans, traced_s)
    for name, picked in (("sim.route_build_ms", builds), ("sim.run_ms", runs),
                         ("sim.deadlock_scan_ms", scans)):
        out.put(name, sum(s.seconds for s in picked) * 1e3 / len(traced), "ms",
                len(picked))
    requests = len(by_name(recorded, "sim.build_hops"))
    out.put("sim.route_cache_hit_ratio", 1 - len(builds) / requests, "ratio", requests)
    # Exact counts: the lamb sets of the first patterns, and the first job.
    lambs = [setup(ctx.seed, p)[2] for p in range(EXACT_PATTERNS)]
    out.put("lamb.classes", sum(r.num_ses + r.num_des for r in lambs), "count",
            len(lambs))
    out.put("lamb.lambs", sum(len(r.lambs) for r in lambs), "count", len(lambs))
    for name, value in traced[0].counts.items():
        out.put(name, value, "count", 1)
    out.put("server.busy_ratio", cpu_s / plain_s, "ratio", 1)
    out.put("trace.overhead_ratio", traced_s / plain_s, "ratio", len(plain))
