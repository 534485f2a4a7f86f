#!/usr/bin/env python3
"""Entry point named by ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  There is nothing to build: the script
puts the checkout and its ``src/`` on ``sys.path`` and hands over to
``benchmarks.e2e.cli``.  Without the program under test (``src/repro``)
it exits non-zero before printing anything that looks like a result.
"""

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"benchmarks/e2e: no program to measure under {REPO}/src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [REPO, os.path.join(REPO, "src")]
    from benchmarks.e2e.cli import main as cli_main

    return cli_main(["run", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
