"""What every workload shares: the run context, the outcome it fills,
and the metric helpers that turn raw samples into reported numbers."""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import percentiles, spans
from .spans import Span

#: Program instances started per run to measure ``setup_s``.
SETUP_REPEATS = 5
#: Tail of the end-to-end op latency, ``op_ms_p90``.
OP_TAIL = 0.90
#: Ops a run needs before ``op_ms_p90`` has ten samples beyond it.
MIN_OPS = percentiles.min_samples(OP_TAIL)
#: Failure messages kept for the report (all are counted).
_MAX_FAILURE_LINES = 20


@dataclass
class Context:
    root: str
    run_dir: str
    seed: int
    seconds: float
    trace: bool

    def path(self, name: str) -> str:
        return os.path.join(self.run_dir, name)


@dataclass
class Outcome:
    """Counts, failures and metrics of one run."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Lines printed above the metric table.
    notes: List[str] = field(default_factory=list)
    #: name -> (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < _MAX_FAILURE_LINES:
            self.failures.append(message)

    def put(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def timing_ms(
        self, name: str, seconds: Sequence[float], tail: Optional[float] = None
    ) -> None:
        """``<name>_p50`` and, given ``tail``, ``<name>_p<tail>`` in
        milliseconds from raw per-operation samples."""
        ms = [s * 1e3 for s in seconds]
        self.put(f"{name}_p50", percentiles.median(ms), "ms", len(ms))
        if tail is not None:
            self.put(
                f"{name}_p{round(tail * 100)}",
                percentiles.percentile(ms, tail), "ms", len(ms),
            )


def headline(out: Outcome, setup_s: Sequence[float], op_s: Sequence[float],
             items: int, wall_s: float, rss_mb: float) -> None:
    """The end-to-end metrics every workload reports: ``setup_s`` (the
    median set-up), ``op_ms_p50`` and ``op_ms_p90`` over the raw times
    of the workload's operation, ``items_per_s`` (units of work done
    per second of ``wall_s``) and ``peak_rss_mb``."""
    out.put("setup_s", percentiles.median(setup_s), "s", len(setup_s))
    out.timing_ms("op_ms", op_s, OP_TAIL)
    out.put("items_per_s", items / wall_s, "1/s", items)
    out.put("peak_rss_mb", rss_mb, "MiB", 1)


def put_share(out: Outcome, name: str, picked: Sequence[Span],
              wall_s: float) -> None:
    """``name``: the summed duration of the ``picked`` spans over the
    traced phase's wall time."""
    out.put(name, sum(s.seconds for s in picked) / wall_s, "ratio", len(picked))


class Deadline:
    """Stop condition of a measured loop: a wall-clock budget, or an
    exact operation count (the traced replay of an untraced phase).

    A budgeted loop that reports tails (``tails=True``) passes
    ``supported``: whether its samples already support them.  On a slow
    host it runs past the budget until they do, rather than report an
    unsupported tail.
    """

    def __init__(self, seconds: Optional[float] = None,
                 ops: Optional[int] = None, tails: bool = True) -> None:
        self.end = None if seconds is None else time.perf_counter() + seconds
        self.ops = ops
        self.tails = tails

    def done(self, ops_so_far: int, supported: bool = True) -> bool:
        if self.ops is not None:
            return ops_so_far >= self.ops
        assert self.end is not None
        return (supported or not self.tails) and time.perf_counter() >= self.end


@contextlib.contextmanager
def generator_gc_paused():
    """Pause the load generator's cyclic garbage collector for a
    measured loop, so its collections do not show up as program
    latency.  Only for loops whose program runs in another process."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def record_cpu(out: Outcome, before: Dict[int, Tuple[str, float]],
               after: Dict[int, Tuple[str, float]], wall: float,
               loadgen_cpu_s: float) -> None:
    """Per-process CPU time over a measured phase, as notes;
    ``server.busy_ratio``, CPU over wall of the busiest program process;
    and ``loadgen.busy_ratio``, the benchmark's own CPU over wall."""
    busy = {}
    for pid, (role, cpu) in sorted(after.items()):
        busy[pid] = (cpu - before.get(pid, (role, 0.0))[1]) / wall
        out.notes.append(f"cpu {role} pid {pid}: {busy[pid] * wall:.2f} s, "
                         f"{busy[pid]:.2f} of {wall:.1f} s wall")
    out.put("server.busy_ratio", max(busy.values()), "ratio", len(busy))
    out.notes.append(f"cpu load generator: {loadgen_cpu_s:.2f} s")
    out.put("loadgen.busy_ratio", loadgen_cpu_s / wall, "ratio", 1)


def median_or_zero(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean_or_zero(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def by_name(spans: Sequence[Span], *names: str) -> List[Span]:
    return [s for s in spans if s.name in names]


def sum_seconds(spans: Sequence[Span], name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def lookup_layers(out: Outcome, spans: Sequence[Span],
                  children: Callable[[Span], List[Span]]) -> None:
    """Route-lookup layer metrics from the server's spans."""
    lookups = by_name(spans, "lookup")
    searches = by_name(spans, "route_search")
    floods = [[c for c in children(s) if c.name == "flood"] for s in searches]
    turns = by_name(spans, "turns")
    out.put("lookup.miss_ratio",
            len(searches) / len(lookups) if lookups else 0.0,
            "ratio", len(lookups))
    out.put("route_search.ms",
            median_or_zero([s.seconds * 1e3 for s in searches]),
            "ms", len(searches))
    out.put("route_search.floods",
            mean_or_zero([len(f) for f in floods]), "count", len(searches))
    out.put("route_search.flood_ms",
            median_or_zero([sum(c.seconds for c in f) * 1e3 for f in floods]),
            "ms", len(searches))
    out.put("turns.ms", median_or_zero([s.seconds * 1e3 for s in turns]),
            "ms", len(turns))


#: Per-layer shares of the single-process server: share name -> the
#: span names whose summed time it covers.
SERVER_SHARES = {
    "lamb.partition_share": ("lamb.partition",),
    "lamb.reachability_share": ("lamb.reachability",),
    "lamb.wvc_share": ("lamb.wvc",),
    "grids_share": ("grids.build", "grids.clone", "grids.add_faults"),
    "store_share": ("store.get", "store.put"),
    "digest_share": ("digest",),
    "route_search_share": ("route_search",),
    "turns_share": ("turns",),
}


def server_layers(out: Outcome, recorded: Sequence[Span], since: float,
                  wall_s: float) -> List[Span]:
    """Per-layer metrics of a traced single-process server over the
    phase that began at ``since`` and lasted ``wall_s``; returns the
    phase's spans.  (``perf_counter`` reads one system-wide monotonic
    clock, so the program's span times compare with ``since``.)"""
    phase = [s for s in recorded if s.start >= since]
    for name, names in SERVER_SHARES.items():
        put_share(out, name, by_name(phase, *names), wall_s)
    self_s = spans.self_times(phase)
    calls = by_name(phase, "compiler.compile", "compiler.delta", "compiler.route")
    out.put("compiler.self_share",
            sum(self_s[s.sid] for s in calls) / wall_s, "ratio", len(calls))
    kids = spans.descendants(phase)
    lookup_layers(out, phase, lambda s: kids[s.sid])
    return phase


def client_layers(out: Outcome, recorded: Sequence[Span], items: int,
                  wall_s: float) -> None:
    """The benchmark's client library calls (:func:`perfbench.layers.
    install_client`) over a traced phase of ``wall_s`` seconds that
    did ``items`` units of work."""
    wire = by_name(recorded, "wire.encode", "wire.decode")
    put_share(out, "wire_share", wire, wall_s)
    out.put("wire.bytes_per_item", sum(s.attrs["bytes"] for s in wire) / items,
            "B", items)
