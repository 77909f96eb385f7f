"""Benchmark of the magicsim CLI: end-to-end metrics, or per-layer ones traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload from workloads.py, or ``all`` to interleave every
workload in one run.  With ``--trace 0`` the last line of stdout is a JSON
object with wall_s, cpu_s, setup_s and peak_rss_mb per workload; with
``--trace 1`` it holds the per-layer metrics of traced runs.  See README.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from spawner import Spawner

HARD_LIMIT_S = 170.0  # the whole benchmark process must end within 180 s
SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    deadline = time.monotonic() + HARD_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "magicsim" / "cli.py").is_file():
        sys.stderr.write(f"no magicsim sources under {SRC}; run from a checkout of the repo\n")
        return 2
    # the spawner forks the measured children, so it starts while this
    # process is still small: before numpy and scipy are imported
    with Spawner() as spawner:
        import harness

        return harness.main(args, spawner, deadline)


if __name__ == "__main__":
    sys.exit(main())
