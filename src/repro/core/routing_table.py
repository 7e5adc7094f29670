"""Routing-table generation: the deliverable of a reconfiguration.

After the lamb set is chosen, the machine needs concrete routes.  For
k-round dimension-ordered routing a route is fully determined by its
``k - 1`` intermediate nodes (Definition 2.3), so the reconfiguration
artifact is a table mapping (source, destination) survivor pairs to
intermediate lists.  Routes that succeed with *fewer* rounds store
fewer intermediates (the head simply continues on the later rounds'
virtual channels without turning, so shorter routes are strictly
better); the table records the minimal number of rounds actually
needed, which the paper's intermediate matrices ``R^(r)`` expose
(Section 6.2).

For large meshes an all-pairs table is O(N^2); the table therefore
resolves routes on demand.  A query reads one-round reach sets per
SES/DES class instead of flooding the grids: all nodes of one
source-equivalent set share their one-round forward set and all nodes
of one destination-equivalent set their backward set (Lemma 4.1), and
Theorem 6.4 bounds the number of classes by ``(2d - 1) f + 1``
whatever the mesh size.  Each class grid is flooded once, the first
time a query touches the class, and kept for the table's lifetime.
Every route is a pure function of the configuration and the pair (see
:func:`~repro.routing.multiround.keyed_pick`), so the bounded per-pair
memo in front of it never changes an answer.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.faults import FaultSet
from ..mesh.geometry import Mesh, Node
from ..mesh.regions import Rect
from ..obs.metrics import Counter
from ..routing import multiround
from ..routing.multiround import FaultGrids, find_k_round_route
from ..routing.ordering import KRoundOrdering, Ordering
from .lamb import LambResult
from .partition import find_des_partition, find_ses_partition

__all__ = [
    "ClassReachSets",
    "ROUTE_MEMO_CAPACITY",
    "RouteCacheCounters",
    "RouteEntry",
    "RoutingTable",
    "build_routing_table",
]

#: Resolved routes a table keeps (least recently used out first).
ROUTE_MEMO_CAPACITY = 4096


@dataclass(frozen=True)
class RouteEntry:
    """One source->destination route: the chosen intermediates and the
    number of rounds actually used (<= k)."""

    source: Node
    dest: Node
    intermediates: Tuple[Node, ...]
    rounds_used: int
    hops: int
    turns: int


@dataclass(frozen=True)
class RouteCacheCounters:
    """Cache traffic of route resolution: route-memo hits, misses and
    evictions, and class grids built (one flood each)."""

    hits: Counter = field(default_factory=Counter)
    misses: Counter = field(default_factory=Counter)
    evictions: Counter = field(default_factory=Counter)
    grids_built: Counter = field(default_factory=Counter)


class _ClassIndex:
    """Which rectangle of a Fig. 11 partition holds a node.

    The partition peels one dimension at a time (last-routed first):
    along it, a rectangle either spans every remaining dimension (a
    fault-free run) or sits in one faulty slab that is partitioned
    recursively.  The index mirrors that recursion: each level is a
    sorted run of intervals ``[start, end]`` along its dimension whose
    entry is a class or a deeper level, so a lookup is ``d`` binary
    searches and the index holds O(classes) integers, none per node.
    """

    __slots__ = ("rects", "_dims", "_off", "_start", "_end", "_kid")

    def __init__(
        self, mesh: Mesh, rects: Sequence[Rect], dims: Sequence[int]
    ) -> None:
        self.rects = list(rects)
        self._dims = tuple(dims)
        widths = mesh.widths
        # Level k holds entries _off[k] .. _off[k+1]-1; an entry's kid
        # is a class (>= 0) or the level -(kid + 1).
        off: List[int] = [0]
        start: List[int] = []
        end: List[int] = []
        kid: List[int] = []
        levels: List[Tuple[List[int], int]] = [(list(range(len(self.rects))), 0)]
        for members, depth in levels:
            dim, rest = self._dims[depth], self._dims[depth + 1:]
            entries: List[Tuple[int, int, int]] = []
            slabs: Dict[int, List[int]] = {}
            for i in members:
                r = self.rects[i]
                if all(r.lo[j] == 0 and r.hi[j] == widths[j] - 1 for j in rest):
                    entries.append((r.lo[dim], r.hi[dim], i))
                elif r.lo[dim] == r.hi[dim]:
                    slabs.setdefault(r.lo[dim], []).append(i)
                else:
                    raise ValueError(f"{r} is not a Fig. 11 partition rectangle")
            for c, sub in slabs.items():
                levels.append((sub, depth + 1))
                entries.append((c, c, -len(levels)))
            entries.sort()
            for prev, cur in zip(entries, entries[1:]):
                if cur[0] <= prev[1]:
                    raise ValueError("partition rectangles overlap")
            for lo, hi, k in entries:
                start.append(lo)
                end.append(hi)
                kid.append(k)
            off.append(len(start))
        self._off = array("i", off)
        self._start = array("i", start)
        self._end = array("i", end)
        self._kid = array("i", kid)

    def find(self, node: Node) -> int:
        level = 0
        for dim in self._dims:
            x = node[dim]
            at = bisect_right(
                self._start, x, self._off[level], self._off[level + 1]
            ) - 1
            if at < self._off[level] or x > self._end[at]:
                break
            kid = self._kid[at]
            if kid >= 0:
                return kid
            level = -kid - 1
        raise ValueError(f"{node} lies in no class of the partition")


class ClassReachSets:
    """:class:`~repro.routing.multiround.OneRoundSets` served from one
    grid per class: forward grids keyed by the SES class of a node
    under the round's ordering, backward stacks keyed by the round-k
    DES class of the destination.

    The partitions come from the lamb result (round 1's SES, round k's
    DES); a lean result restored from the store carries none, and they
    are recomputed here, as is the SES partition of a later round with
    another ordering (Fig. 11, independent of the mesh size).  Grids
    are kept bit-packed (one bit per node) and unpacked per call.
    ``on_grid(n)`` is told of every ``n`` grids flooded.
    """

    def __init__(
        self,
        result: LambResult,
        grids: FaultGrids,
        on_grid: Callable[[int], None] = lambda n: None,
    ) -> None:
        self._result = result
        self._orderings: KRoundOrdering = result.orderings
        self._floods = multiround.FloodSets(grids, result.orderings)
        self._on_grid = on_grid
        self._ses: Dict[Ordering, _ClassIndex] = {}
        self._des: Optional[_ClassIndex] = None
        self._fwd: Dict[Tuple[Ordering, int], np.ndarray] = {}
        self._bwd: Dict[int, List[np.ndarray]] = {}

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        mesh = self._result.mesh
        bits = np.unpackbits(packed, count=mesh.num_nodes)
        return bits.view(bool).reshape(mesh.widths)

    def forward(self, t: int, node: Node) -> np.ndarray:
        pi = self._orderings[t]
        index = self._ses.get(pi)
        if index is None:
            given = self._result.ses_partition if pi == self._orderings[0] else []
            rects = given or find_ses_partition(self._result.faults, pi)
            # Find-SES-Partition peels the last-routed dimension first.
            index = self._ses[pi] = _ClassIndex(
                self._result.mesh, rects, pi.perm[::-1]
            )
        key = (pi, index.find(node))
        packed = self._fwd.get(key)
        if packed is not None:
            return self._unpack(packed)
        grid = self._floods.forward(t, index.rects[key[1]].lo)
        self._fwd[key] = np.packbits(grid)
        self._on_grid(1)
        return grid

    def backward(self, dest: Node) -> List[np.ndarray]:
        if self._des is None:
            last = self._orderings[-1]
            rects = self._result.des_partition or find_des_partition(
                self._result.faults, last
            )
            # A DES partition is an SES partition of the reversed ordering.
            self._des = _ClassIndex(self._result.mesh, rects, last.perm)
        cls = self._des.find(dest)
        packed = self._bwd.get(cls)
        if packed is not None:
            return [self._unpack(p) for p in packed]
        stack = self._floods.backward(self._des.rects[cls].lo)
        self._bwd[cls] = [np.packbits(g) for g in stack]
        self._on_grid(len(stack))
        return stack


class RoutingTable:
    """Survivor-to-survivor routes for a reconfigured machine.

    Routes resolve on demand (:meth:`lookup`) and the last
    :data:`ROUTE_MEMO_CAPACITY` of them are kept; :func:`build_routing_table`
    resolves a given pair set up front.  Lambs and faulty nodes are
    rejected as endpoints — lambs may appear as intermediates, which
    is precisely their job.

    ``counters`` receives the table's cache traffic (a private set by
    default); it may be replaced to publish into shared metrics.
    """

    def __init__(
        self,
        result: LambResult,
        policy: str = "shortest",
        grids: Optional[FaultGrids] = None,
        counters: Optional[RouteCacheCounters] = None,
    ) -> None:
        self.result = result
        self.faults: FaultSet = result.faults
        self.mesh: Mesh = result.mesh
        self.orderings: KRoundOrdering = result.orderings
        self.policy = policy
        self.counters = RouteCacheCounters() if counters is None else counters
        # ``grids`` lets an incremental caller (the control-plane
        # compiler) hand over pre-updated fault grids instead of
        # rebuilding them from the cumulative fault set.
        self._grids = FaultGrids(self.faults) if grids is None else grids
        # Built on the first miss: nothing is added to compile time.
        self._sets: Optional[ClassReachSets] = None
        self._entries: "OrderedDict[Tuple[Node, Node], RouteEntry]" = (
            OrderedDict()
        )

    @property
    def grids(self) -> FaultGrids:
        """The fault grids backing route resolution (clone before
        mutating — published tables are immutable by convention)."""
        return self._grids

    # ------------------------------------------------------------------
    def lookup(self, source: Sequence[int], dest: Sequence[int]) -> RouteEntry:
        """The route entry for a survivor pair (computed on demand)."""
        source = tuple(int(x) for x in source)
        dest = tuple(int(x) for x in dest)
        key = (source, dest)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.counters.hits.inc()
            return entry
        for end, name in ((source, "source"), (dest, "destination")):
            if not self.result.is_survivor(end):
                raise ValueError(f"{name} {end} is not a survivor node")
        self.counters.misses.inc()
        computed = self._compute(source, dest)
        if computed is None:
            raise RuntimeError(
                f"{dest} unreachable from {source}: the lamb set is invalid"
            )
        self._remember(computed)
        return computed

    def _grid_built(self, n: int) -> None:
        self.counters.grids_built.inc(n)

    def _compute(self, source: Node, dest: Node) -> Optional[RouteEntry]:
        from ..routing.turns import count_turns_multiround

        if self._sets is None:
            self._sets = ClassReachSets(self.result, self._grids, self._grid_built)
        paths = find_k_round_route(
            self._grids, self.orderings, source, dest,
            policy=self.policy, sets=self._sets,
        )
        if paths is None:
            return None
        # Trim trailing no-op rounds: rounds_used is the last round
        # whose path actually moves.
        rounds_used = 0
        for t, p in enumerate(paths):
            if len(p) > 1:
                rounds_used = t + 1
        rounds_used = max(rounds_used, 1)
        intermediates = tuple(p[-1] for p in paths[:-1])
        hops = sum(len(p) - 1 for p in paths)
        turns = count_turns_multiround(paths)
        return RouteEntry(
            source=source,
            dest=dest,
            intermediates=intermediates,
            rounds_used=rounds_used,
            hops=hops,
            turns=turns,
        )

    def _remember(self, entry: RouteEntry) -> None:
        self._entries[(entry.source, entry.dest)] = entry
        if len(self._entries) > ROUTE_MEMO_CAPACITY:
            self._entries.popitem(last=False)
            self.counters.evictions.inc()

    # ------------------------------------------------------------------
    def preload(self, entries: Iterable[RouteEntry]) -> None:
        """Seed the memo with precomputed entries (deserialization,
        warm hand-off between control-plane epochs).

        Every entry's endpoints must be survivors of this table's
        reconfiguration — entries from a different epoch are rejected
        rather than silently serving routes through dead hardware.
        """
        for e in entries:
            for end, name in ((e.source, "source"), (e.dest, "destination")):
                if not self.result.is_survivor(end):
                    raise ValueError(
                        f"preloaded route {e.source}->{e.dest}: "
                        f"{name} {end} is not a survivor node"
                    )
            self._remember(e)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[RouteEntry]:
        return list(self._entries.values())

    def round_usage_histogram(self) -> Dict[int, int]:
        """How many kept routes needed 1, 2, ... rounds — the
        quantity behind the paper's observation that most pairs remain
        one-round reachable under sparse faults."""
        hist: Dict[int, int] = {}
        for e in self._entries.values():
            hist[e.rounds_used] = hist.get(e.rounds_used, 0) + 1
        return hist

    def max_turns(self) -> int:
        return max((e.turns for e in self._entries.values()), default=0)


def build_routing_table(
    result: LambResult,
    pairs: Optional[Sequence[Tuple[Sequence[int], Sequence[int]]]] = None,
    policy: str = "shortest",
) -> RoutingTable:
    """Populate a routing table.

    ``pairs=None`` builds the full all-pairs table over survivors
    (O(|survivors|^2) — small meshes); otherwise only the given pairs
    are resolved.  A table keeps at most :data:`ROUTE_MEMO_CAPACITY`
    routes, so a larger pair set is refused rather than truncated.
    """
    table = RoutingTable(result, policy=policy)
    if pairs is None:
        survivors = result.survivors()
        pairs = [(v, w) for v in survivors for w in survivors if v != w]
    if len(pairs) > ROUTE_MEMO_CAPACITY:
        raise ValueError(
            f"{len(pairs)} pairs exceed the table's {ROUTE_MEMO_CAPACITY} "
            "routes; resolve them with RoutingTable.lookup in batches"
        )
    for (v, w) in pairs:
        table.lookup(v, w)
    return table
