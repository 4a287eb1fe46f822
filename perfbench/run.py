"""The repo benchmark: time a scenario workload end to end, or trace it.

Usage::

    python3 perfbench/run.py --workload incast-32 --seed 0 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics with tracing off: a few set-up-only processes, then fresh
processes that each run the whole workload, as many as fit in
``--seconds`` (at least one); it reports medians, with times scaled by
the machine's speed as ``reference.py`` gauges it. ``--trace 1`` runs the workload once with
tracing off and once under the per-layer tracer (and, for a sharded
workload, once on a single kernel), checks that their simulated outputs
are byte-identical, and reports the per-layer metrics.

Every run checks each flow's result (see ``checks.py``) and prints, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 once a result is
printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from reference import REFERENCE_S
from spec import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
#: Set-up-only processes per timed run, before the workload runs (each
#: workload run adds one more set-up sample).
SETUP_PROBES = 4
#: Wall-clock budget of one benchmark run; workers still running at the
#: deadline are killed and the run fails.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A worker failed or the run ran out of time."""


def spawn(deadline: float, **config: Any) -> Dict[str, Any]:
    """Run one worker process to completion and return its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    config["src"] = os.path.join(ROOT, "src")
    config["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(config)], cwd=ROOT,
            capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {config['mode']} ran past the "
                         f"{BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {config['mode']} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(result: Dict[str, Any], seconds: float) -> float:
    """A worker's measured time in reference seconds: scaled to a
    machine on which the reference loop takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / result["ref_s"]


def load_metrics(kind: str) -> Dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics the
    repository's BENCHMARK.json declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"]: metric["unit"]
                for metric in json.load(fh)[kind]}


def digest_status(workload: str, runs: List[Dict[str, Any]]) -> str:
    """How the runs' simulated output compares with the recorded digest
    for this workload and seed (informational: never gates)."""
    seed = runs[0]["seed"]
    with open(DIGESTS, encoding="utf-8") as fh:
        reference = json.load(fh).get(workload, {}).get(str(seed))
    if reference is None:
        return f"no recorded digest for seed {seed}"
    if all(run["digest"] == reference for run in runs):
        return f"matches the recorded digest for seed {seed}"
    return (f"DIFFERS from the recorded digest for seed {seed}: the "
            "model's simulated output changed")


def report_failures(workload: str, runs: List[Dict[str, Any]]) -> bool:
    """Print failed flows and host errors; True when no host check
    failed (flow failures are counted, not fatal)."""
    known = WORKLOADS[workload]["known_faults"]
    failed = {name: errors for run in runs for name, errors in run["failed"]}
    for name in sorted(failed):
        cause = known.get(name, "unexpected: no known fault explains it")
        print(f"  failed flow {name}: {'; '.join(failed[name])} "
              f"[cause: {cause}]")
    host_errors = sorted({e for run in runs for e in run["host_errors"]})
    for error in host_errors:
        print(f"  host check failed: {error}")
    return not host_errors


def timed(args, deadline: float) -> Dict[str, Any]:
    """End-to-end metrics with tracing off."""
    config = {"workload": args.workload, "seed": args.seed,
              "shards": WORKLOADS[args.workload]["shards"]}
    probes = [spawn(deadline, mode="setup", **config)
              for _ in range(SETUP_PROBES)]
    runs: List[Dict[str, Any]] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        runs.append(spawn(deadline, mode="run", **config))
        now = time.monotonic()
        # Whole workload runs only: stop before one that would end past
        # --seconds, judged by the length of the last one.
        if now - start + (now - began) > args.seconds:
            break
    setups = probes + runs
    samples = {
        "setup_s": [scaled(p, p["setup_s"]) for p in setups],
        "run_s": [scaled(run, run["run_s"]) for run in runs],
        "sim_pkts_per_s": [run["packets"] / scaled(run, run["run_s"])
                           for run in runs],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }
    print(f"{args.workload} seed {runs[0]['seed']}: {len(runs)} workload "
          f"run(s), {len(setups)} set-ups; medians (times in reference "
          f"seconds, see reference.py):")
    metrics = {}
    for name, values in samples.items():
        metrics[name] = statistics.median(values)
        print(f"  {name} = {metrics[name]:.6g} (n={len(values)}, "
              f"min {min(values):.6g}, max {max(values):.6g})")
    print(f"  raw: setup_s {statistics.median(p['setup_s'] for p in setups):.6g}"
          f", run_s {statistics.median(run['run_s'] for run in runs):.6g}, "
          f"reference loop {statistics.median(p['ref_s'] for p in setups):.4g}"
          f" s (scaled to {REFERENCE_S} s)")
    deterministic = len({run["digest"] for run in runs}) == 1
    if not deterministic:
        print("  simulated output differs between runs of one seed")
    print(f"  output {digest_status(args.workload, runs)}")
    correct = report_failures(args.workload, runs) and deterministic
    return {"correct": correct, "runs": runs, "metrics": metrics}


def traced(args, deadline: float) -> Dict[str, Any]:
    """Per-layer metrics from one traced run, next to an untraced one."""
    shards = WORKLOADS[args.workload]["shards"]
    config = {"workload": args.workload, "seed": args.seed,
              "shards": shards}
    plain = spawn(deadline, mode="run", **config)
    trace = spawn(deadline, mode="trace", **config)
    runs = [plain, trace]
    identical = trace["digest"] == plain["digest"]
    print(f"{args.workload} seed {plain['seed']}: traced output "
          f"{'identical to' if identical else 'DIFFERS from'} untraced")
    if shards > 1:
        single = spawn(deadline, mode="run", **dict(config, shards=1))
        runs.append(single)
        same = single["digest"] == plain["digest"]
        identical = identical and same
        print(f"  {shards}-shard output "
              f"{'identical to' if same else 'DIFFERS from'} single kernel")
    print(f"  output {digest_status(args.workload, runs)}")
    metrics = dict(trace["layers"])
    metrics["trace.overhead"] = trace["run_s"] / plain["run_s"]
    correct = report_failures(args.workload, runs) and identical
    return {"correct": correct, "runs": runs, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the template's)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time the timed workload runs may fill")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    try:
        wanted = load_metrics("per_layer" if args.trace else "end_to_end")
        outcome = (traced if args.trace else timed)(args, deadline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [name for name in wanted if name not in outcome["metrics"]]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    runs = outcome["runs"]
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(len(run["failed"]) for run in runs),
        "metrics": {name: {"value": outcome["metrics"][name],
                           "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
