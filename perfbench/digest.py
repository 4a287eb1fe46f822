"""Regenerate ``perfbench/digests.json``: per workload and seed, the
SHA-256 of the simulated output (the sorted-JSON per-host results).

Usage::

    python3 perfbench/digest.py [--workload NAME ...] [--seeds 0-9]

Each timed or traced benchmark run says whether its output matches the
recorded digest. A speed-only change must leave every digest as it is;
a model change moves them, and is then regenerated with this command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import BUDGET_S, DIGESTS, BenchError, spawn
from spec import WORKLOADS


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to record (repeatable; default all)")
    parser.add_argument("--seeds", default="0-9", type=parse_seeds,
                        help="seed range, as FIRST-LAST (default 0-9)")
    args = parser.parse_args(argv)
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
    except FileNotFoundError:
        digests = {}
    for workload in args.workload or list(WORKLOADS):
        for seed in args.seeds:
            try:
                result = spawn(time.monotonic() + BUDGET_S, mode="run",
                               workload=workload, seed=seed,
                               shards=WORKLOADS[workload]["shards"])
            except BenchError as exc:
                print(f"{workload} seed {seed}: {exc}", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = result["digest"]
            print(f"{workload} seed {seed}: {result['digest']}")
    with open(DIGESTS + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(DIGESTS + ".tmp", DIGESTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
