"""Output checks written from the paper's definitions, independent of
the code under test.

A route reply names ``k - 1`` intermediates; round ``t`` travels from
one waypoint to the next in dimension order ``orders[t]`` (Definition
2.3).  :func:`route_error` re-walks every round hop by hop over the
fault set instead of trusting anything the program computed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

Node = Tuple[int, ...]


def dor_walk(src: Sequence[int], dst: Sequence[int], order: Sequence[int]) -> List[Node]:
    """Every node of the dimension-ordered path ``src -> dst`` that
    corrects dimensions in ``order``, endpoints included."""
    cur = list(src)
    path = [tuple(cur)]
    for dim in order:
        step = 1 if dst[dim] > cur[dim] else -1
        while cur[dim] != dst[dim]:
            cur[dim] += step
            path.append(tuple(cur))
    return path


def route_error(
    reply: Dict[str, Any],
    source: Node,
    dest: Node,
    faulty: Set[Node],
    non_survivors: Set[Node],
    orders: Sequence[Sequence[int]],
) -> Optional[str]:
    """Why ``reply`` is not a valid route for ``source -> dest``, or
    ``None``.  ``faulty`` are the dead nodes, ``non_survivors`` the
    nodes no route may start or end at (faults, lambs, quarantine)."""
    if not reply.get("ok"):
        return f"error reply: {reply.get('error')}"
    if tuple(reply["source"]) != source or tuple(reply["dest"]) != dest:
        return "reply endpoints differ from the request"
    if source in non_survivors or dest in non_survivors:
        return "non-survivor endpoint"
    k = len(orders)
    inter = [tuple(v) for v in reply["intermediates"]]
    if len(inter) > k - 1:
        return f"route needs {len(inter) + 1} rounds, k = {k}"
    waypoints = [source] + inter + [dest]
    hops = 0
    last_moving = 0
    for t, (a, b) in enumerate(zip(waypoints, waypoints[1:])):
        path = dor_walk(a, b, orders[t])
        for v in path:
            if v in faulty:
                return f"round {t + 1} crosses faulty node {v}"
        if len(path) > 1:
            last_moving = t + 1
        hops += len(path) - 1
    if hops != reply["hops"]:
        return f"reply claims {reply['hops']} hops, the walk has {hops}"
    if reply["rounds_used"] != max(last_moving, 1):
        return "reply misstates the rounds used"
    return None


def hops_error(
    hops: Sequence[Any], source: Node, dest: Node, faulty: Set[Node], k: int
) -> Optional[str]:
    """Why a simulator message's hop list is not a valid k-round route
    (contiguous, fault-free, virtual channels non-decreasing and below
    ``k``), or ``None``."""
    cur = source
    vc = 0
    for hop in hops:
        if tuple(hop.src) != cur:
            return "hops are not contiguous"
        if sum(abs(a - b) for a, b in zip(hop.src, hop.dst)) != 1:
            return "hop is not a mesh link"
        if tuple(hop.dst) in faulty:
            return f"hop enters faulty node {tuple(hop.dst)}"
        if hop.vc < vc or hop.vc >= k:
            return "virtual channels out of round order"
        vc = hop.vc
        cur = tuple(hop.dst)
    if cur != dest:
        return "hops end away from the destination"
    return None
