"""The benchmark's workloads, by name.  Each module exposes
``async run(ctx) -> Outcome``."""

from . import query_cold, query_warm, reconfigure, simulate

WORKLOADS = {
    "reconfigure": reconfigure,
    "query_cold": query_cold,
    "query_warm": query_warm,
    "simulate": simulate,
}
