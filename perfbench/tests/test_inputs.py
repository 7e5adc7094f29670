import itertools

from perfbench import inputs


def _ops(seed, n=40):
    return list(itertools.islice(inputs.reconfigure_ops(seed), n))


def test_inputs_are_a_pure_function_of_the_seed():
    assert _ops(7) == _ops(7)
    assert _ops(7) != _ops(8)
    assert inputs.query_faults(3) == inputs.query_faults(3)
    assert inputs.query_faults(3) != inputs.query_faults(4)
    nodes = inputs.survivors((4, 4), set())
    pairs = lambda s: list(itertools.islice(inputs.distinct_pairs(s, nodes), 50))
    assert pairs(1) == pairs(1) != pairs(2)
    assert inputs.derangement(5, 0, 30) == inputs.derangement(5, 0, 30)
    assert inputs.probe_pairs(1, 3, (8, 8), set()) == inputs.probe_pairs(1, 3, (8, 8), set())
    assert inputs.sim_faults(1, 0) == inputs.sim_faults(1, 0) != inputs.sim_faults(1, 1)


def test_reconfigure_stream_shape():
    ops = _ops(11, 200)
    compiles = [op for op in ops if op["kind"] == "compile"]
    repairs = [op for op in ops if op["kind"] == "repair"]
    deltas = [op for op in ops if op["kind"] == "delta"]
    # Each block of episodes visits every fault level once.
    levels = [len(op["faults"]) for op in compiles]
    block = len(inputs.FRESH_LEVELS)
    assert inputs.FRESH_LEVELS[0] == 160 and inputs.FRESH_LEVELS[-1] == 650
    for at in range(0, len(levels) - block + 1, block):
        assert sorted(levels[at:at + block]) == sorted(inputs.FRESH_LEVELS)
    # Repairs stay well under half of all compiles (fresh + repairs).
    assert len(repairs) / (len(repairs) + len(compiles)) <= 1 / 3 + 0.01
    assert all(len(op["faults"]) == inputs.REPAIR_LEVEL for op in repairs)
    seen = set()
    for op in ops:
        if op["kind"] == "delta":
            assert inputs.ARRIVAL_MIN <= len(op["new"]) <= inputs.ARRIVAL_MAX
            assert not set(op["new"]) & prev
            assert op["faults"] == prev | set(op["new"])
        if op["kind"] == "repair":
            assert op["faults"] in seen and op["faults"] != prev
        prev = op["faults"]
        seen.add(prev)
    assert deltas


def test_cold_pairs_never_repeat_and_avoid_non_survivors():
    nodes = inputs.survivors((4, 4), {(0, 0), (1, 1)})
    assert (0, 0) not in nodes and len(nodes) == 14
    pairs = list(itertools.islice(inputs.distinct_pairs(0, nodes), 14 * 13))
    assert len(set(pairs)) == len(pairs)
    assert all(s != d for s, d in pairs)


def test_derangement_moves_every_element():
    perm = inputs.derangement(2, 1, 250)
    assert sorted(perm) == list(range(250))
    assert all(perm[i] != i for i in range(250))
