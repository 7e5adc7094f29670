"""End-to-end benchmark of the route-query control plane and the
wormhole simulator.  Run ``python3 perfbench/run.py --help``; see
``perfbench/README.md`` for the workloads and metrics."""
