"""k-round dimension-ordered reachability and route materialization.

These are the exact, whole-mesh (O(N) per query) reference semantics
for Definition 2.5.2: grid-based frontier propagation computes the set
of nodes ``(k, F, pi)``-reachable from a source, the reverse sets, and
concrete k-round routes with a choice of intermediate-node policy (the
"heuristic" remark after Definition 2.3).

The lamb algorithms never call these on large meshes — they use the
SES/DES machinery whose cost is independent of N — but this module is
the ground truth they are validated against, and it is what the
wormhole simulator uses to materialize routes.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..mesh.faults import FaultSet
from ..mesh.geometry import Node
from .dor import dor_path
from .ordering import KRoundOrdering, Ordering

__all__ = [
    "FaultGrids",
    "reach_set_one_round",
    "reverse_reach_set_one_round",
    "reach_set_k_rounds",
    "multi_source_reach_sets",
    "k_round_reachable",
    "OneRoundSets",
    "FloodSets",
    "keyed_pick",
    "find_k_round_route",
]


class FaultGrids:
    """Dense boolean grids describing a fault set.

    Attributes
    ----------
    good:
        ``widths``-shaped bool array, True at nonfaulty nodes.
    up_cut[j], down_cut[j]:
        Arrays with extent ``n_j - 1`` along axis ``j``;
        ``up_cut[j][..., i, ...]`` is True when the directed link from
        coordinate ``i`` to ``i + 1`` along dimension ``j`` is faulty
        (and symmetrically for ``down_cut``).  Links incident to faulty
        nodes are *not* marked here; the propagation kernel already
        refuses to enter faulty nodes.
    """

    __slots__ = ("mesh", "good", "up_cut", "down_cut")

    def __init__(self, faults: FaultSet) -> None:
        mesh = faults.mesh
        self.mesh = mesh
        good = np.ones(mesh.widths, dtype=bool)
        for v in faults.node_faults:
            good[v] = False
        self.good = good
        d = mesh.d
        self.up_cut: List[np.ndarray] = []
        self.down_cut: List[np.ndarray] = []
        for j in range(d):
            shape = list(mesh.widths)
            shape[j] -= 1
            self.up_cut.append(np.zeros(shape, dtype=bool))
            self.down_cut.append(np.zeros(shape, dtype=bool))
        for (u, w) in faults.link_faults:
            self._cut_link(u, w)

    def _cut_link(self, u: Node, w: Node) -> None:
        d = self.mesh.d
        j = next(i for i in range(d) if u[i] != w[i])
        if w[j] == u[j] + 1:
            self.up_cut[j][u] = True
        else:
            idx = list(w)
            self.down_cut[j][tuple(idx)] = True

    def clone(self) -> "FaultGrids":
        """An independent copy (array-level).

        The incremental-recompile path of the control plane clones the
        current epoch's grids and applies a fault delta via
        :meth:`add_faults` instead of rebuilding from the cumulative
        :class:`~repro.mesh.faults.FaultSet` — the same O(delta) trick
        the live-fault simulator uses, without mutating the published
        epoch's state.
        """
        other = object.__new__(FaultGrids)
        other.mesh = self.mesh
        other.good = self.good.copy()
        other.up_cut = [a.copy() for a in self.up_cut]
        other.down_cut = [a.copy() for a in self.down_cut]
        return other

    def add_faults(
        self,
        node_faults: Sequence[Node] = (),
        link_faults: Sequence[Tuple[Node, Node]] = (),
    ) -> None:
        """Incrementally mark additional faults in place.

        Used by the live-fault simulator: a chaos epoch only touches a
        handful of cells, so mutating the dense grids is much cheaper
        than reconstructing them from the cumulative
        :class:`~repro.mesh.faults.FaultSet` every event.
        """
        for v in node_faults:
            self.good[tuple(v)] = False
        for (u, w) in link_faults:
            self._cut_link(tuple(u), tuple(w))


def _propagate_axis(
    frontier: np.ndarray, grids: FaultGrids, axis: int
) -> np.ndarray:
    """Extend a frontier along one axis in both directions.

    Returns the set of nodes reachable by an axis-``axis`` segment
    (possibly of length zero) starting from a frontier node, passing
    only through good nodes and non-cut links.
    """
    good = np.moveaxis(grids.good, axis, 0)
    up_cut = np.moveaxis(grids.up_cut[axis], axis, 0)
    down_cut = np.moveaxis(grids.down_cut[axis], axis, 0)
    src = np.moveaxis(frontier, axis, 0)
    n = src.shape[0]
    up = src.copy()
    for i in range(1, n):
        up[i] |= up[i - 1] & good[i] & ~up_cut[i - 1]
    down = src.copy()
    for i in range(n - 2, -1, -1):
        down[i] |= down[i + 1] & good[i] & ~down_cut[i]
    return np.moveaxis(up | down, 0, axis)


def reach_set_one_round(
    grids: FaultGrids, pi: Ordering, start: np.ndarray
) -> np.ndarray:
    """All nodes one ``pi``-round reachable from any node in ``start``.

    ``start`` is a boolean grid that must only mark good nodes.
    """
    frontier = start & grids.good
    for j in pi:
        frontier = _propagate_axis(frontier, grids, j)
    return frontier


_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


def _word_mask(grid: np.ndarray) -> np.ndarray:
    """uint64 lane mask of a bool grid (all-ones where True), with a
    trailing broadcast axis for the source-word lanes."""
    return np.where(grid, _FULL_WORD, np.uint64(0))[..., None]


def _propagate_axis_words(
    frontier: np.ndarray,
    good_m: np.ndarray,
    up_cut_m: np.ndarray,
    down_cut_m: np.ndarray,
    axis: int,
) -> np.ndarray:
    """Word-lane variant of :func:`_propagate_axis`: ``frontier`` has a
    trailing uint64 axis carrying 64 sources per word, so one axis scan
    advances every source at once."""
    good = np.moveaxis(good_m, axis, 0)
    up_cut = np.moveaxis(up_cut_m, axis, 0)
    down_cut = np.moveaxis(down_cut_m, axis, 0)
    src = np.moveaxis(frontier, axis, 0)
    n = src.shape[0]
    up = src.copy()
    for i in range(1, n):
        up[i] |= up[i - 1] & good[i] & ~up_cut[i - 1]
    down = src.copy()
    for i in range(n - 2, -1, -1):
        down[i] |= down[i + 1] & good[i] & ~down_cut[i]
    return np.moveaxis(up | down, 0, axis)


def multi_source_reach_sets(
    grids: FaultGrids,
    rounds: Iterable[Ordering],
    sources: Sequence[Node],
) -> np.ndarray:
    """Reach sets of many sources at once, bit-parallel.

    Packs the sources into uint64 word lanes (64 per word) and runs
    each axis scan once per word batch instead of once per source: bit
    ``s % 64`` of word ``s // 64`` at node ``w`` marks source ``s``
    having reached ``w``.  ``rounds`` is any sequence of per-round
    orderings (a :class:`KRoundOrdering` iterates as one).

    Returns an ``(len(sources), N)`` bool matrix in ``Mesh.index_of``
    column order; row ``s`` is bit-identical to
    ``reach_set_k_rounds(grids, rounds, sources[s]).reshape(-1)``
    (the sequential oracle), with faulty sources yielding all-False
    rows.
    """
    mesh = grids.mesh
    n = len(sources)
    N = mesh.num_nodes
    if n == 0:
        return np.zeros((0, N), dtype=bool)
    n_words = (n + 63) // 64
    frontier = np.zeros(mesh.widths + (n_words,), dtype=np.uint64)
    for s, v in enumerate(sources):
        v = tuple(int(x) for x in v)
        if grids.good[v]:
            frontier[v + (s // 64,)] |= np.uint64(1) << np.uint64(s % 64)
    good_m = _word_mask(grids.good)
    up_m = [_word_mask(g) for g in grids.up_cut]
    down_m = [_word_mask(g) for g in grids.down_cut]
    for pi in rounds:
        for j in pi:
            frontier = _propagate_axis_words(
                frontier, good_m, up_m[j], down_m[j], j
            )
    flat = frontier.reshape(N, n_words)
    bits = np.unpackbits(
        flat.view(np.uint8), axis=1, count=n, bitorder="little"
    )
    return bits.astype(bool).T


def _flipped(grids: FaultGrids) -> FaultGrids:
    """Grids with every directed link reversed (shares node data)."""
    out = FaultGrids.__new__(FaultGrids)
    out.mesh = grids.mesh
    out.good = grids.good
    out.up_cut = grids.down_cut
    out.down_cut = grids.up_cut
    return out


def reverse_reach_set_one_round(
    grids: FaultGrids, pi: Ordering, target: np.ndarray
) -> np.ndarray:
    """All nodes ``u`` that can one-``pi``-round reach some node in
    ``target``.

    Uses the reversal identity: ``u`` can ``pi``-reach ``w`` iff ``w``
    can reach ``u`` under the reversed ordering with all directed links
    flipped.
    """
    return reach_set_one_round(_flipped(grids), pi.reversed(), target)


def reach_set_k_rounds(
    grids: FaultGrids, orderings: KRoundOrdering, source: Sequence[int]
) -> np.ndarray:
    """The set of nodes ``(k, F, pi_vec)``-reachable from ``source``."""
    mesh = grids.mesh
    start = np.zeros(mesh.widths, dtype=bool)
    start[tuple(source)] = True
    frontier = start
    for pi in orderings:
        frontier = reach_set_one_round(grids, pi, frontier)
    return frontier


def k_round_reachable(
    grids: FaultGrids,
    orderings: KRoundOrdering,
    v: Sequence[int],
    w: Sequence[int],
) -> bool:
    """Exact Definition 2.5.2 test (O(k N) time)."""
    return bool(reach_set_k_rounds(grids, orderings, v)[tuple(w)])


class OneRoundSets(Protocol):
    """The one-round reach sets :func:`find_k_round_route` reads.

    The default, :class:`FloodSets`, floods the grids for every query.
    A caller that answers many queries on one configuration can serve
    the same sets from a memo instead: every node of one
    source-equivalent set (SES) has the same forward set, and every
    node of one destination-equivalent set (DES) the same backward
    sets (Lemma 4.1), so one grid per class serves all its members.
    Returned grids are read, never written.
    """

    def forward(self, t: int, node: Node) -> np.ndarray:
        """Nodes one round ``t`` (0-indexed) reachable from ``node``."""
        ...

    def backward(self, dest: Node) -> Sequence[np.ndarray]:
        """The ``k - 1`` backward sets of ``dest``: entry ``t`` holds
        the nodes that can reach ``dest`` in rounds ``t + 1 .. k - 1``
        (0-indexed), i.e. where round ``t`` may end."""
        ...


class FloodSets:
    """:class:`OneRoundSets` computed by flooding the grids per call:
    one flood forward, ``k - 1`` reverse floods backward."""

    __slots__ = ("grids", "orderings")

    def __init__(self, grids: FaultGrids, orderings: KRoundOrdering) -> None:
        self.grids = grids
        self.orderings = orderings

    def _point(self, node: Sequence[int]) -> np.ndarray:
        grid = np.zeros(self.grids.mesh.widths, dtype=bool)
        grid[tuple(node)] = True
        return grid

    def forward(self, t: int, node: Node) -> np.ndarray:
        return reach_set_one_round(self.grids, self.orderings[t], self._point(node))

    def backward(self, dest: Node) -> List[np.ndarray]:
        rounds = self.orderings
        if rounds.k == 1:
            return []
        stack = [
            reverse_reach_set_one_round(
                self.grids, rounds[rounds.k - 1], self._point(dest)
            )
        ]
        for t in range(rounds.k - 2, 0, -1):
            stack.append(reverse_reach_set_one_round(self.grids, rounds[t], stack[-1]))
        stack.reverse()
        return stack


POLICIES = ("shortest", "first", "random")


def keyed_pick(source: Node, dest: Node, t: int, n: int) -> int:
    """A pseudo-random index in ``[0, n)`` that is a pure function of
    the query ``(source, dest)`` and the round ``t``: the tie-break of
    route resolution when no generator is supplied, so a route never
    depends on which queries came before it."""
    key = repr((source, dest, t)).encode("ascii")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little") % n


def find_k_round_route(
    grids: FaultGrids,
    orderings: KRoundOrdering,
    v: Sequence[int],
    w: Sequence[int],
    policy: str = "shortest",
    rng: Optional[np.random.Generator] = None,
    sets: Optional[OneRoundSets] = None,
) -> Optional[List[List[Node]]]:
    """Materialize a concrete k-round route from ``v`` to ``w``.

    Returns one node path per round (round ``t``'s path starts where
    round ``t-1``'s ended), or ``None`` if ``w`` is not
    ``(k, F, pi_vec)``-reachable from ``v``.

    ``policy`` selects the intermediate nodes (the congestion heuristic
    discussed after Definition 2.3):

    - ``"shortest"``: minimize the total route length (sum of per-round
      L1 hops) — the paper's suggested heuristic;
    - ``"first"``: lexicographically smallest intermediates;
    - ``"random"``: uniform choice among feasible intermediates.

    Ties (``"shortest"``) and random picks draw from ``rng`` when one
    is given; otherwise they use :func:`keyed_pick`, so the route is a
    pure function of ``(grids, orderings, v, w, policy)``.

    ``sets`` supplies the one-round reach sets; by default they are
    flooded per call (``2k - 2`` floods, one at ``k = 1``).  The
    candidate sets, and so the ``rng`` draws, do not depend on where
    the sets come from.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    mesh = grids.mesh
    src: Node = tuple(int(x) for x in v)
    dst: Node = tuple(int(x) for x in w)
    k = orderings.k
    if not grids.good[src] or not grids.good[dst]:
        return None
    if sets is None:
        sets = FloodSets(grids, orderings)
    widths = mesh.widths

    def pick(t: int, n: int) -> int:
        if rng is not None:
            return int(rng.integers(n))
        return keyed_pick(src, dst, t, n)

    def choose(t: int, candidates: np.ndarray, prev: Node) -> Node:
        if policy == "shortest" and candidates[dst]:
            # The goal itself, when feasible, is always a minimum-cost
            # intermediate (triangle equality) and collapses the
            # remaining rounds to no-ops — prefer it outright.
            return dst
        # Flat indices in C order, i.e. lexicographic node order.
        flat = np.flatnonzero(candidates)
        if policy == "first":
            idx = flat[0]
        elif policy == "random":
            idx = flat[pick(t, len(flat))]
        else:
            cost = np.zeros(len(flat), dtype=np.int64)
            for j, c in enumerate(np.unravel_index(flat, widths)):
                cost += np.abs(c - prev[j]) + np.abs(c - dst[j])
            best = flat[cost == cost.min()]
            idx = best[pick(t, len(best))]
        return tuple(int(x) for x in np.unravel_index(idx, widths))

    if k == 1:
        if not sets.forward(0, src)[dst]:
            return None
        return [dor_path(mesh, orderings[0], src, dst)]
    back = sets.backward(dst)
    paths: List[List[Node]] = []
    cur = src
    for t in range(k):
        if t == k - 1:
            nxt = dst
        else:
            # Feasible ends of round t: one round from cur, and able to
            # finish within the remaining rounds.  Nonempty at t = 0
            # iff dst is k-round reachable; nonempty after that because
            # every chosen node can finish.
            feasible = sets.forward(t, cur) & back[t]
            if not feasible.any():
                return None
            nxt = choose(t, feasible, cur)
        paths.append(dor_path(mesh, orderings[t], cur, nxt))
        cur = nxt
    return paths
