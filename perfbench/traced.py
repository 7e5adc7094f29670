"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

    python -m perfbench.traced --layers server --spans OUT -- serve ...

Spans stay in memory while the program runs and are written to ``OUT``
(one JSON object per line) when the command returns.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers", required=True, choices=("server", "router"),
                        help="layer set of perfbench.layers to wrap")
    parser.add_argument("--spans", required=True,
                        help="write the recorded spans here at exit")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- followed by the repro CLI arguments")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as repro_main

    from .layers import INSTALLERS
    from .spans import Tracer

    tracer = Tracer()
    INSTALLERS[args.layers](tracer)
    try:
        return repro_main(cli)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
