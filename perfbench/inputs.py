"""Workload inputs: pure functions of the workload seed.

The program under test receives only what these functions return.
Each function builds its own ``numpy`` generator from ``(seed,
stream)``, so one input stream never shifts another.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

Node = Tuple[int, ...]

# --- reconfigure ---------------------------------------------------------
RECONFIGURE_DIMS = (32, 32, 32)
#: Node-fault counts of fresh configs: ten evenly spaced levels from
#: 0.5% to 2% of the 32768 nodes.  Every block of ten episodes visits
#: each level once, so a run's compile-time distribution does not
#: depend on which levels the seed happened to draw, and its quantiles
#: move smoothly instead of jumping between a few clusters.
FRESH_LEVELS = tuple(int(round(160 + i * (650 - 160) / 9)) for i in range(10))
#: An arrival reports 1..4 new node faults.
ARRIVAL_MIN, ARRIVAL_MAX = 1, 4
#: One repair (compile of an earlier fault set) per this many episodes,
#: so repairs stay a third of all compiles.
REPAIR_EVERY = 2
#: Repairs re-activate the latest fresh config of this level.  A hit
#: costs time in proportion to the fault set sent, so one level keeps
#: the reactivation time free of the level mix.
REPAIR_LEVEL = FRESH_LEVELS[len(FRESH_LEVELS) // 2]
#: Queries in the probe batch sent after every activation.
PROBE_PAIRS = 2

# --- query_cold / query_warm --------------------------------------------
QUERY_DIMS = (16, 16, 16)
QUERY_FAULTS = 82
#: Pairs per request, a seeded draw from each range.  Uneven batches
#: keep the two closed-loop connections from locking into one phase
#: against each other (a locked run reads a different median).
COLD_BATCH = (1, 3)
WARM_BATCH = (75, 125)
WARM_POOL = 400
#: Pairs per request while the pool is resolved on the replicas.
WARM_UP_CHUNK = 100

# --- simulate -----------------------------------------------------------
SIM_DIMS = (16, 16)
SIM_FAULTS = 8
SIM_FLITS = 16
#: Waves per job; each job takes the next traffic pattern (fault set
#: and derangement), so a run averages over many patterns' congestion.
SIM_WAVES = 10


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *map(int, stream)])


def random_nodes(
    dims: Sequence[int], count: int, rng: np.random.Generator,
    exclude: Set[Node] = frozenset(),
) -> List[Node]:
    """``count`` distinct nodes of the mesh outside ``exclude``."""
    total = int(np.prod(dims))
    out: List[Node] = []
    seen = set(exclude)
    while len(out) < count:
        flat = rng.choice(total, size=count - len(out), replace=False)
        for idx in flat:
            v = tuple(int(x) for x in np.unravel_index(int(idx), dims))
            if v not in seen:
                seen.add(v)
                out.append(v)
    return sorted(out)


def reconfigure_ops(seed: int) -> Iterator[Dict]:
    """The control client's op stream: endless episodes of

    - ``compile`` of a fresh random config (a store miss),
    - one arrival: a ``delta`` of 1..4 new node faults,
    - every :data:`REPAIR_EVERY` episodes a ``repair``: a ``compile``
      of a fault set activated earlier (a store hit).

    Each op carries ``faults``, the full node-fault set it activates,
    and its ``episode``.  A repair re-activates the latest fresh config
    of :data:`REPAIR_LEVEL` faults; none is sent before that level has
    come up.
    """
    rng = _rng(seed, 1)
    repair_target = None
    for episode in itertools.count():
        if episode % len(FRESH_LEVELS) == 0:
            levels = [FRESH_LEVELS[i] for i in rng.permutation(len(FRESH_LEVELS))]
        level = levels[episode % len(FRESH_LEVELS)]
        base = frozenset(random_nodes(RECONFIGURE_DIMS, level, rng))
        yield {"kind": "compile", "faults": base, "episode": episode}
        n_new = int(rng.integers(ARRIVAL_MIN, ARRIVAL_MAX + 1))
        new = random_nodes(RECONFIGURE_DIMS, n_new, rng, exclude=set(base))
        yield {"kind": "delta", "new": new, "faults": base | frozenset(new),
               "episode": episode}
        if (episode + 1) % REPAIR_EVERY == 0 and repair_target is not None:
            yield {"kind": "repair", "faults": repair_target, "episode": episode}
        if level == REPAIR_LEVEL:
            repair_target = base


def probe_pairs(
    seed: int, op_index: int, dims: Sequence[int], non_survivors: Set[Node],
    count: int = PROBE_PAIRS,
) -> List[Tuple[Node, Node]]:
    """Survivor pairs for the probe batch after activation ``op_index``."""
    rng = _rng(seed, 1000 + op_index)
    out: List[Tuple[Node, Node]] = []
    while len(out) < count:
        s, d = (
            tuple(int(x) for x in rng.integers(0, dims, size=len(dims)))
            for _ in range(2)
        )
        if s != d and s not in non_survivors and d not in non_survivors:
            out.append((s, d))
    return out


def query_faults(seed: int) -> List[Node]:
    """The node faults of the query workloads' machine."""
    return random_nodes(QUERY_DIMS, QUERY_FAULTS, _rng(seed, 2))


def survivors(dims: Sequence[int], non_survivors: Set[Node]) -> List[Node]:
    return [
        v for v in (
            tuple(int(x) for x in idx) for idx in np.ndindex(*dims)
        )
        if v not in non_survivors
    ]


def distinct_pairs(seed: int, nodes: Sequence[Node]) -> Iterator[Tuple[Node, Node]]:
    """Endless survivor pairs, no pair repeated (every lookup misses)."""
    rng = _rng(seed, 3)
    seen: Set[Tuple[int, int]] = set()
    n = len(nodes)
    while True:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            yield nodes[a], nodes[b]


def warm_pool(seed: int, nodes: Sequence[Node]) -> List[Tuple[Node, Node]]:
    """The bounded pair pool of ``query_warm``."""
    pairs = distinct_pairs(seed, nodes)
    return [next(pairs) for _ in range(WARM_POOL)]


def batch_sizes(seed: int, bounds: Tuple[int, int]) -> Iterator[int]:
    """Endless request sizes drawn uniformly from ``bounds`` (inclusive)."""
    rng = _rng(seed, 7)
    while True:
        yield int(rng.integers(bounds[0], bounds[1] + 1))


def warm_batches(seed: int, pool_size: int) -> Iterator[List[int]]:
    """Endless batches of pool indices (drawn with replacement)."""
    rng = _rng(seed, 4)
    for size in batch_sizes(seed, WARM_BATCH):
        yield [int(i) for i in rng.integers(0, pool_size, size=size)]


def sim_faults(seed: int, pattern: int) -> List[Node]:
    return random_nodes(SIM_DIMS, SIM_FAULTS, _rng(seed, 5, pattern))


def derangement(seed: int, pattern: int, count: int) -> List[int]:
    """A fixed-point-free permutation of ``range(count)`` (Sattolo's
    algorithm: one cycle through every element)."""
    rng = _rng(seed, 6, pattern)
    perm = list(range(count))
    for i in range(count - 1, 0, -1):
        j = int(rng.integers(0, i))
        perm[i], perm[j] = perm[j], perm[i]
    return perm
