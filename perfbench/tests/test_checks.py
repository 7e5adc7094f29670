import itertools

from perfbench import checks
from repro.core import find_lamb_set
from repro.core.routing_table import RoutingTable
from repro.mesh import FaultSet, Mesh
from repro.routing import ascending, repeated

ORDERS = [(0, 1), (0, 1)]


def _reply(source, dest, inter, hops, rounds):
    return {"ok": True, "source": list(source), "dest": list(dest),
            "intermediates": [list(v) for v in inter], "hops": hops,
            "rounds_used": rounds}


def test_dor_walk_corrects_dimensions_in_order():
    assert checks.dor_walk((0, 0), (2, 1), (0, 1)) == [(0, 0), (1, 0), (2, 0), (2, 1)]
    assert checks.dor_walk((2, 1), (0, 0), (1, 0)) == [(2, 1), (2, 0), (1, 0), (0, 0)]


def test_route_error_flags_each_defect():
    ok = _reply((0, 0), (2, 2), [(0, 2)], 4, 2)
    assert checks.route_error(ok, (0, 0), (2, 2), set(), set(), ORDERS) is None
    # Round 1 runs (0,0)->(0,2) along y, crossing (0,1).
    assert "faulty node (0, 1)" in checks.route_error(
        ok, (0, 0), (2, 2), {(0, 1)}, {(0, 1)}, ORDERS)
    assert checks.route_error(ok, (0, 0), (2, 2), set(), {(2, 2)}, ORDERS) \
        == "non-survivor endpoint"
    three = _reply((0, 0), (2, 2), [(0, 1), (1, 1)], 4, 3)
    assert "needs 3 rounds" in checks.route_error(three, (0, 0), (2, 2), set(), set(), ORDERS)
    wrong = _reply((0, 0), (2, 2), [(0, 2)], 5, 2)
    assert "hops" in checks.route_error(wrong, (0, 0), (2, 2), set(), set(), ORDERS)
    assert "endpoints" in checks.route_error(ok, (0, 0), (2, 1), set(), set(), ORDERS)
    error = {"ok": False, "error": {"code": "x"}}
    assert "error reply" in checks.route_error(error, (0, 0), (2, 2), set(), set(), ORDERS)


def test_every_route_of_the_program_passes_the_walk():
    """The checker agrees with the program's routing table on a small
    faulty mesh (and so would catch a table that disagreed)."""
    mesh = Mesh((6, 6))
    faults = FaultSet(mesh, [(1, 1), (2, 4), (4, 2)])
    result = find_lamb_set(faults, repeated(ascending(2), 2))
    table = RoutingTable(result)
    non_survivors = set(faults.node_faults) | set(result.lambs)
    survivors = [v for v in mesh.nodes() if v not in non_survivors]
    for s, d in itertools.permutations(survivors, 2):
        e = table.lookup(s, d)
        reply = _reply(s, d, e.intermediates, e.hops, e.rounds_used)
        assert checks.route_error(
            reply, s, d, set(faults.node_faults), non_survivors, ORDERS) is None


def test_hops_error():
    class Hop:
        def __init__(self, src, dst, vc):
            self.src, self.dst, self.vc = src, dst, vc

    good = [Hop((0, 0), (1, 0), 0), Hop((1, 0), (1, 1), 1)]
    assert checks.hops_error(good, (0, 0), (1, 1), set(), 2) is None
    assert "faulty" in checks.hops_error(good, (0, 0), (1, 1), {(1, 0)}, 2)
    back = [Hop((0, 0), (1, 0), 1), Hop((1, 0), (1, 1), 0)]
    assert "round order" in checks.hops_error(back, (0, 0), (1, 1), set(), 2)
    assert "destination" in checks.hops_error(good[:1], (0, 0), (1, 1), set(), 2)
    gap = [Hop((0, 0), (1, 0), 0), Hop((0, 1), (1, 1), 1)]
    assert "contiguous" in checks.hops_error(gap, (0, 0), (1, 1), set(), 2)
