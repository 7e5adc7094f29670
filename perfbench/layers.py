"""Which public functions of which layer the traced run wraps.

Each ``install_*`` function wraps callables in one process kind; the
workload modules aggregate spans by the names given here.  Calls
are wrapped where the caller looks them up (a module attribute read at
call time, or a class attribute), so the program's own code runs
unchanged between the wrappers.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict

from .spans import Tracer


def _node(v: Any) -> str:
    return ",".join(str(int(x)) for x in v)


def pair_rid(source: Any, dest: Any) -> str:
    """The request id of one route query: its endpoints (every pair of
    ``query_cold`` is distinct, so the pair identifies the request)."""
    return f"q:{_node(source)}>{_node(dest)}"


def install_server(tracer: Tracer) -> None:
    """The single-process server: compiler, lamb pipeline, ladder,
    grids, store, digest, and route lookup."""
    from repro.core import reconfigure, routing_table
    from repro.routing import multiround, turns
    from repro.service import compiler, store

    mutations = itertools.count()

    def mutation_rid(args: tuple, kwargs: dict) -> str:
        return f"mutation:{next(mutations)}"

    def lamb_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        # SES + DES classes (Theorem 6.4); None when the rung failed.
        return {} if result is None else {"classes": result.num_ses + result.num_des}

    def get_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        return {"hit": result is not None}

    def put_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        st, digest = args[0], args[1]
        return {"bytes": os.path.getsize(st._path(digest))} if st.root else {}

    comp = compiler.ReconfigurationCompiler
    tracer.wrap(comp, "compile", "compiler.compile", rid=mutation_rid)
    tracer.wrap(comp, "apply_delta", "compiler.delta", rid=mutation_rid)
    tracer.wrap(comp, "route", "compiler.route",
                rid=lambda a, k: pair_rid(a[1], a[2]))
    tracer.wrap(compiler, "config_digest", "digest")
    tracer.wrap(store.ArtifactStore, "get", "store.get", attrs=get_attrs)
    tracer.wrap(store.ArtifactStore, "put", "store.put", attrs=put_attrs)
    tracer.wrap(reconfigure.ReconfigurationManager, "report_faults_degraded",
                "ladder")
    tracer.wrap(reconfigure, "find_lamb_set", "lamb", attrs=lamb_attrs)
    install_lamb(tracer)
    install_grids(tracer)
    tracer.wrap(routing_table.RoutingTable, "lookup", "lookup")
    tracer.wrap(routing_table, "find_k_round_route", "route_search")
    tracer.wrap(multiround, "reach_set_one_round", "flood")
    tracer.wrap(turns, "count_turns_multiround", "turns")


def install_grids(tracer: Tracer) -> None:
    """The fault grids route search runs on: build, clone, and adding
    faults."""
    from repro.routing import multiround

    tracer.wrap(multiround.FaultGrids, "__init__", "grids.build")
    tracer.wrap(multiround.FaultGrids, "clone", "grids.clone")
    tracer.wrap(multiround.FaultGrids, "add_faults", "grids.add_faults")


def install_lamb(tracer: Tracer) -> None:
    """The lamb pipeline's stages: partitions, reachability, and the
    weighted vertex cover."""
    from repro.core import lamb

    tracer.wrap(lamb, "find_ses_partition", "lamb.partition")
    tracer.wrap(lamb, "find_des_partition", "lamb.partition")
    tracer.wrap(lamb, "find_reachability", "lamb.reachability")
    tracer.wrap(lamb, "min_weight_vertex_cover_bipartite", "lamb.wvc")


def install_router(tracer: Tracer) -> None:
    """The shard router: one span per client message and one per
    worker round trip inside it."""
    from repro.service import shard

    tracer.wrap(shard.ShardRouter, "_dispatch", "router.message")
    tracer.wrap(shard._WorkerHandle, "roundtrip", "router.roundtrip")


def install_client(tracer: Tracer) -> None:
    """The benchmark's own client library calls: frame encode and
    payload decode, with their byte counts."""
    from repro.service import wire

    tracer.wrap(wire, "encode_frame", "wire.encode",
                attrs=lambda a, k, r: {"bytes": len(r)})
    tracer.wrap(wire, "decode_payload", "wire.decode",
                attrs=lambda a, k, r: {"bytes": len(a[0])})


def install_simulator(tracer: Tracer) -> None:
    """The wormhole simulator: route build on a cache miss, every
    route request, its grid floods, the step loop, and the deadlock
    scan; and the lamb pipeline and grids of the job's set-up."""
    from repro.routing import multiround
    from repro.wormhole import simulator

    install_lamb(tracer)
    install_grids(tracer)
    tracer.wrap(multiround, "reach_set_one_round", "flood")

    sim = simulator.WormholeSimulator
    tracer.wrap(sim, "build_hops", "sim.build_hops")
    tracer.wrap(simulator, "find_k_round_route", "sim.route_build")
    tracer.wrap(sim, "run", "sim.run")
    tracer.wrap(simulator, "build_wait_graph", "sim.deadlock_scan")
    tracer.wrap(simulator, "find_deadlock_cycle", "sim.deadlock_scan")


#: Layer sets that :mod:`perfbench.traced` installs in a program process.
INSTALLERS = {"server": install_server, "router": install_router}
