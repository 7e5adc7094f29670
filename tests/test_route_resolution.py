"""Route resolution from per-class one-round grids (SES/DES), and the
purity of every route.

Determinism tests vary what must not matter — query order, the
replica or compiler that answers, a store round trip — rather than
running one order twice.  The differential tests hold the class grids
and the routes built from them against the per-query flood oracle in
:mod:`repro.routing.multiround`.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core import find_lamb_set
from repro.core import routing_table as rt
from repro.core.routing_table import ClassReachSets, RoutingTable
from repro.mesh import FaultSet, Mesh
from repro.mesh.faults import random_link_faults
from repro.mesh.patterns import clustered_faults, dust_and_clusters
from repro.mesh.serialization import (
    routing_table_from_dict,
    routing_table_to_dict,
)
from repro.obs.exporters import to_prometheus
from repro.routing import (
    KRoundOrdering,
    Ordering,
    ascending,
    find_k_round_route,
    multiround,
    repeated,
    reverse_reach_set_one_round,
)
from repro.routing.multiround import FaultGrids, FloodSets, keyed_pick
from repro.service import ReconfigurationCompiler
from repro.service.store import ArtifactStore

Node = Tuple[int, ...]
Pair = Tuple[Node, Node]


def _machine() -> FaultSet:
    """A 3-D mesh whose 2-round routes have many equal-cost choices."""
    mesh = Mesh((7, 7, 7))
    return dust_and_clusters(mesh, 12, 2, 4, np.random.default_rng(5))


def _pairs(survivors: Sequence[Node], n: int, seed: int) -> List[Pair]:
    rng = np.random.default_rng(seed)
    out: List[Pair] = []
    while len(out) < n:
        a, b = rng.integers(len(survivors), size=2)
        if a != b:
            out.append((survivors[int(a)], survivors[int(b)]))
    return out


def _entries(table: RoutingTable, pairs: Sequence[Pair]) -> Dict[Pair, Any]:
    return {p: table.lookup(*p) for p in pairs}


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestQueryOrder:
    def test_forward_reversed_and_shuffled_orders_agree(self):
        result = find_lamb_set(_machine(), repeated(ascending(3), 2))
        pairs = _pairs(result.survivors(), 300, seed=1)
        shuffled = list(pairs)
        np.random.default_rng(2).shuffle(shuffled)
        forward = _entries(RoutingTable(result), pairs)
        backward = _entries(RoutingTable(result), pairs[::-1])
        mixed = _entries(RoutingTable(result), shuffled)
        for p in pairs:
            assert repr(forward[p]) == repr(backward[p]) == repr(mixed[p]), p
        # Enough 2-round routes that an order-dependent tie-break shows.
        assert sum(e.rounds_used == 2 for e in forward.values()) > 50

    def test_eviction_does_not_change_an_answer(self, monkeypatch):
        result = find_lamb_set(_machine(), repeated(ascending(3), 2))
        pairs = _pairs(result.survivors(), 60, seed=3)
        reference = _entries(RoutingTable(result), pairs)
        monkeypatch.setattr(rt, "ROUTE_MEMO_CAPACITY", 8)
        small = RoutingTable(result)
        for p in pairs + pairs[::-1]:
            assert small.lookup(*p) == reference[p]
        assert len(small) == 8
        assert small.counters.evictions.value == 2 * len(pairs) - 8 - (
            small.counters.hits.value
        )


class TestReplicas:
    def _compiler(self, **kw: Any) -> ReconfigurationCompiler:
        return ReconfigurationCompiler(
            Mesh((7, 7, 7)), repeated(ascending(3), 2), **kw
        )

    def test_independent_compilers_agree(self):
        faults = _machine()
        a, b = self._compiler(), self._compiler()
        art_a, _ = a.compile(faults)
        art_b, _ = b.compile(faults)
        pairs = _pairs(art_a.result.survivors(), 200, seed=4)
        replies_a = {p: a.route(*p, epoch=art_a.epoch) for p in pairs}
        replies_b = {p: b.route(*p, epoch=art_b.epoch) for p in pairs[::-1]}
        assert art_a.epoch == art_b.epoch
        assert replies_a == replies_b

    def test_restored_artifact_answers_like_the_fresh_one(self, tmp_path):
        faults = _machine()
        fresh = self._compiler(store=ArtifactStore(root=str(tmp_path)))
        art, _ = fresh.compile(faults)
        pairs = _pairs(art.result.survivors(), 200, seed=5)
        warm, probe = pairs[:100], pairs[100:]
        for p in warm:
            fresh.route(*p)
        expected = {p: fresh.route(*p) for p in probe}
        # A new process: the record comes back from disk as a lean
        # result, with empty partitions and no routes for ``probe``.
        other = self._compiler(store=ArtifactStore(root=str(tmp_path)))
        restored, source = other.compile(faults)
        assert source == "store"
        assert restored.result.ses_partition == []
        assert restored.result.des_partition == []
        got = {p: other.route(*p) for p in probe[::-1]}
        assert got == expected

    def test_two_shard_router_replicas_agree(self):
        """Identical ``(source, dest, epoch)`` queries answered by the
        two replicas of a 2-shard router get identical replies."""
        from repro.service.shard import ShardRouter

        faults = FaultSet(Mesh((8, 8)), [(2, 2), (5, 6), (3, 5), (6, 1)])
        result = find_lamb_set(faults, repeated(ascending(2), 2))
        pairs = _pairs(result.survivors(), 40, seed=6)
        fields = ("epoch", "source", "dest", "intermediates",
                  "rounds_used", "hops", "turns")

        async def main() -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
            router = ShardRouter(dims=(8, 8), rounds=2, num_shards=2)
            await router.start()
            client = await router.client(default_timeout=60.0)
            try:
                compiled = await client.compile(faults, timeout=120.0)
                epoch = int(compiled["epoch"])
                # Reads rotate over the two replicas, so with an even
                # count the reversed pass sends each pair to the other
                # replica, after a different query history.
                first = [await client.query(s, d, epoch=epoch) for s, d in pairs]
                second = [
                    await client.query(s, d, epoch=epoch) for s, d in pairs[::-1]
                ]
                return first, second[::-1]
            finally:
                await client.close()
                await router.stop()

        first, second = asyncio.run(main())
        assert len(pairs) % 2 == 0
        for a, b in zip(first, second):
            assert a["ok"] and b["ok"]
            assert {f: a[f] for f in fields} == {f: b[f] for f in fields}


# ----------------------------------------------------------------------
# Differential oracle: class grids and routes vs per-query floods
# ----------------------------------------------------------------------
def _configs() -> List[Tuple[str, FaultSet, KRoundOrdering]]:
    rng = np.random.default_rng(11)
    m2, m3 = Mesh((9, 8)), Mesh((6, 5, 6))
    links2 = random_link_faults(m2, 10, rng)
    links3 = random_link_faults(m3, 12, rng)
    mixed2 = clustered_faults(m2, 6, 3, rng).with_faults(
        link_faults=links2.link_faults
    )
    mixed3 = dust_and_clusters(m3, 5, 2, 3, rng).with_faults(
        link_faults=links3.link_faults
    )
    xy_yx_xy = KRoundOrdering([ascending(2), Ordering((1, 0)), ascending(2)])
    xyz_zyx_xyz = KRoundOrdering(
        [ascending(3), Ordering((2, 1, 0)), ascending(3)]
    )
    return [
        ("2d-links-k2", mixed2, repeated(ascending(2), 2)),
        ("2d-links-k3", mixed2, repeated(ascending(2), 3)),
        ("2d-mixed-orders-k3", mixed2, xy_yx_xy),
        ("3d-links-k2", mixed3, repeated(ascending(3), 2)),
        ("3d-links-k3", mixed3, xyz_zyx_xyz),
    ]


@pytest.fixture(params=_configs(), ids=lambda c: c[0])
def config(request: Any) -> Tuple[FaultSet, KRoundOrdering]:
    return request.param[1], request.param[2]


def _point(mesh: Mesh, v: Node) -> np.ndarray:
    g = np.zeros(mesh.widths, dtype=bool)
    g[v] = True
    return g


def _members(rect: Any, rng: np.random.Generator, n: int = 3) -> List[Node]:
    nodes = list(rect.nodes())
    picks = rng.choice(len(nodes), size=min(n, len(nodes)), replace=False)
    return [nodes[int(i)] for i in picks]


class TestClassGrids:
    def test_class_grids_match_member_floods(self, config):
        faults, orderings = config
        mesh = faults.mesh
        result = find_lamb_set(faults, orderings)
        grids = FaultGrids(faults)
        sets = ClassReachSets(result, grids)
        rng = np.random.default_rng(12)
        for t, pi in enumerate(orderings):
            for rect in result.ses_partition if t == 0 else []:
                for v in _members(rect, rng):
                    flood = multiround.reach_set_one_round(
                        grids, pi, _point(mesh, v)
                    )
                    assert np.array_equal(sets.forward(t, v), flood), (t, v)
        # Rounds after the first: SES classes of their own ordering
        # (recomputed lazily when it differs from round 1's).
        good = [v for v in mesh.nodes() if not faults.node_is_faulty(v)]
        for t, pi in enumerate(orderings):
            for i in rng.choice(len(good), size=25, replace=False):
                v = good[int(i)]
                flood = multiround.reach_set_one_round(grids, pi, _point(mesh, v))
                assert np.array_equal(sets.forward(t, v), flood), (t, v)
        last = orderings[orderings.k - 1]
        for rect in result.des_partition:
            for w in _members(rect, rng):
                stack = sets.backward(w)
                oracle = FloodSets(grids, orderings).backward(w)
                assert len(stack) == len(oracle) == orderings.k - 1
                for got, want in zip(stack, oracle):
                    assert np.array_equal(got, want), w
                assert np.array_equal(
                    stack[-1],
                    reverse_reach_set_one_round(grids, last, _point(mesh, w)),
                )

    def test_lean_result_recomputes_the_partitions(self, config):
        faults, orderings = config
        result = find_lamb_set(faults, orderings)
        lean = routing_table_from_dict(
            routing_table_to_dict(RoutingTable(result))
        ).result
        assert lean.ses_partition == [] and lean.lambs == result.lambs
        grids = FaultGrids(faults)
        a = ClassReachSets(result, grids)
        b = ClassReachSets(lean, grids)
        for w in result.survivors()[::7]:
            assert all(
                np.array_equal(x, y)
                for x, y in zip(a.backward(w), b.backward(w))
            )
            for t in range(orderings.k):
                assert np.array_equal(a.forward(t, w), b.forward(t, w))

    def test_routes_match_the_flood_path(self, config):
        faults, orderings = config
        result = find_lamb_set(faults, orderings)
        table = RoutingTable(result)
        grids = FaultGrids(faults)
        survivors = result.survivors()
        for s, d in _pairs(survivors, 150, seed=13):
            entry = table.lookup(s, d)
            paths = find_k_round_route(grids, orderings, s, d)
            assert paths is not None
            moving = [t + 1 for t, p in enumerate(paths) if len(p) > 1]
            assert entry.hops == sum(len(p) - 1 for p in paths)
            assert entry.rounds_used == max(moving, default=1)
            assert entry.intermediates == tuple(p[-1] for p in paths[:-1])

    def test_class_grids_are_built_once(self, config):
        faults, orderings = config
        result = find_lamb_set(faults, orderings)
        table = RoutingTable(result)
        pairs = _pairs(result.survivors(), 120, seed=14)
        for p in pairs:
            table.lookup(*p)
        built = table.counters.grids_built.value
        # Bounded by the classes, not by the queries: at most one
        # forward grid per SES class of each round and k - 1 backward
        # grids per DES class, each partition within Theorem 6.4.
        classes = (2 * faults.mesh.d - 1) * faults.f + 1
        assert 0 < built <= (2 * orderings.k - 1) * classes
        table._entries.clear()
        for p in pairs:
            table.lookup(*p)
        assert table.counters.grids_built.value == built


# ----------------------------------------------------------------------
# The flood path itself
# ----------------------------------------------------------------------
class TestFloodPath:
    def _count_floods(self, monkeypatch: Any) -> List[int]:
        calls = [0]
        inner = multiround.reach_set_one_round

        def counted(*args: Any, **kw: Any) -> np.ndarray:
            calls[0] += 1
            return inner(*args, **kw)

        monkeypatch.setattr(multiround, "reach_set_one_round", counted)
        return calls

    @pytest.mark.parametrize("k,floods", [(1, 1), (2, 2), (3, 4)])
    def test_two_k_minus_two_floods(self, monkeypatch, k, floods):
        faults = FaultSet(Mesh((8, 8)), [(3, 3), (4, 1)])
        grids = FaultGrids(faults)
        calls = self._count_floods(monkeypatch)
        paths = find_k_round_route(
            grids, repeated(ascending(2), k), (0, 0), (7, 6)
        )
        assert paths is not None
        assert calls[0] == floods

    def test_unreachable_pair_returns_none(self):
        # (0, 0) is walled in by a down-cut and a left-cut it cannot
        # leave in two XY rounds: its only moves are blocked.
        mesh = Mesh((4, 4))
        faults = FaultSet(mesh, [], [((0, 0), (1, 0)), ((0, 0), (0, 1))])
        grids = FaultGrids(faults)
        assert find_k_round_route(grids, repeated(ascending(2), 2),
                                  (0, 0), (3, 3)) is None
        assert find_k_round_route(grids, repeated(ascending(2), 1),
                                  (0, 0), (3, 3)) is None

    def test_keyed_pick_is_a_pure_function(self):
        picks = [keyed_pick((0, 1), (5, 5), 0, 7) for _ in range(3)]
        assert len(set(picks)) == 1 and 0 <= picks[0] < 7
        spread = {keyed_pick((i, 0), (5, 5), 0, 4) for i in range(40)}
        assert spread == {0, 1, 2, 3}

    def test_without_rng_the_route_is_order_free(self):
        faults = _machine()
        grids = FaultGrids(faults)
        orderings = repeated(ascending(3), 2)
        result = find_lamb_set(faults, orderings)
        pairs = _pairs(result.survivors(), 40, seed=15)
        once = [find_k_round_route(grids, orderings, s, d) for s, d in pairs]
        again = [find_k_round_route(grids, orderings, s, d) for s, d in pairs[::-1]]
        assert once == again[::-1]


# ----------------------------------------------------------------------
# Cache counters in the service metrics
# ----------------------------------------------------------------------
class TestRouteCacheMetrics:
    def test_counters_reach_stats_and_prometheus(self):
        faults = FaultSet(Mesh((8, 8)), [(2, 2), (5, 6)])
        compiler = ReconfigurationCompiler(Mesh((8, 8)), repeated(ascending(2), 2))
        art, _ = compiler.compile(faults)
        pairs = _pairs(art.result.survivors(), 10, seed=16)
        for p in pairs + pairs[:4]:
            compiler.route(*p)
        snap = compiler.metrics.snapshot()["route_cache"]
        assert snap["memo_misses"] == 10
        assert snap["memo_hits"] == 4
        assert snap["memo_evictions"] == 0
        assert snap["memo_hit_rate"] == round(4 / 14, 4)
        assert snap["class_grids_built"] > 0
        prom = to_prometheus(compiler.metrics.registry)
        assert 'service_route_memo_total{result="hit"} 4' in prom
        assert 'service_route_memo_total{result="miss"} 10' in prom
        assert "service_route_memo_evictions_total 0" in prom
        assert "service_route_class_grids_total" in prom
