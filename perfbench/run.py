"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1`` (0, with no
samples, for a layer the workload does not touch).  Above it a table
gives every metric with its unit and sample count, and the workload's
own finer metrics, marked "table only".
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
from typing import Dict, Iterable, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("reconfigure", "query_cold", "query_warm", "simulate")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


#: Units that read as time; every per-layer metric avoids them, since
#: a workload reports the layers it does not touch as 0.
TIME_UNITS = ("s", "ms", "us", "ns")


def declared(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def select(metrics: Dict[str, Tuple[float, str, int]], untouched: Iterable[str],
           section: str) -> Dict[str, Tuple[float, str, int]]:
    """Every metric ``section`` declares, in its declared unit: measured,
    or 0 for a per-layer metric of a layer the workload does not touch
    (``untouched``).  Measured metrics the section does not declare
    stay in the table only."""
    untouched = set(untouched)
    chosen = {}
    for name, unit in declared(section).items():
        if name in untouched:
            if name in metrics or section != "per_layer" or unit in TIME_UNITS:
                raise RuntimeError(f"metric {name} cannot be reported as "
                                   f"untouched")
            chosen[name] = (0.0, unit, 0)
        elif name not in metrics:
            raise RuntimeError(f"metric {name} of BENCHMARK.json {section} "
                               f"was not measured")
        elif metrics[name][1] != unit:
            raise RuntimeError(f"metric {name} measured in {metrics[name][1]}, "
                               f"declared in {unit}")
        else:
            chosen[name] = metrics[name]
    return chosen


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {ROOT}/src/repro; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    # This file's own directory must not shadow modules by name.
    sys.path[:1] = [ROOT, os.path.join(ROOT, "src")]

    from perfbench.common import Context
    from perfbench.workloads import WORKLOADS

    run_dir = os.path.join(ROOT, "perfbench", ".run", str(os.getpid()))
    os.makedirs(run_dir)
    ctx = Context(ROOT, run_dir, args.seed, args.seconds, bool(args.trace))
    try:
        workload = WORKLOADS[args.workload]
        out = asyncio.run(workload.run(ctx))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run still uses it

    section = "per_layer" if args.trace else "end_to_end"
    result = select(out.metrics, workload.UNTOUCHED if args.trace else (), section)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for line in out.notes:
        print(line)
    print(f"{'metric':<30} {'value':>14} {'unit':<7} samples")
    for name, (value, unit, n) in {**out.metrics, **result}.items():
        flag = "" if name in result else "  (table only)"
        print(f"{name:<30} {value:>14.6g} {unit:<7} {n}{flag}")
    print(f"{'failed_ratio':<30} {out.failed / max(out.attempted, 1):>14.6g} "
          f"{'ratio':<7} {out.attempted}  (table only)")
    for line in out.failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in result.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
