"""Wire-to-kernel benchmark of the CRNN service.

Run from the root of a checkout::

    python3 crnnbench/run.py --workload table1-k2 --seed 1 --seconds 45 --trace 0

It starts ``repro.serve`` as its own process, drives it from one
``ServeClient`` in a closed loop, referees the results by brute force
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer split with ``--trace 1``.  The line before
it records the host, the noise probe and the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    sys.path.insert(0, ROOT)
    from crnnbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "serve", "server.py")):
        print(f"crnnbench: no program to run: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from crnnbench.bench import run

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
