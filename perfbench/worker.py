"""Run one workload once, in a fresh process, and print what it measured.

Usage: ``python3 perfbench/worker.py '<json config>'`` with the keys
``workload``, ``seed``, ``shards``, ``mode``, ``t_spawn`` and ``src``:

- ``mode`` is ``setup`` (stop once the scenario is validated, compiled
  and built), ``run`` (tracing off) or ``trace`` (under ``cProfile``,
  with per-layer counters read afterwards);
- outside ``trace`` mode the worker also times the reference loop of
  ``reference.py`` after set-up and after the run (``ref_s``, their
  mean), outside the measured regions;
- ``t_spawn`` is the parent's ``time.monotonic()`` just before it
  started this process, so set-up time includes interpreter start and
  imports;
- ``src`` is the directory that holds the ``repro`` package.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from typing import Any, Dict, List, Tuple

from checks import check_run
from reference import reference_s
from spec import scenario_spec


class _SetupDone(Exception):
    """Raised from the shard executor's constructor in ``setup`` mode:
    the kernels are built and the first event has not run."""


def _run_single(spec, setup_only: bool, gauge: bool
                ) -> Tuple[Dict[str, float], Any, List[Any], Dict[str, Any]]:
    from repro.workloads.topo_scenario import compile_scenario
    scenario = compile_scenario(spec)
    marks = _set_up(gauge)
    if setup_only:
        return marks, None, [], {}
    marks["t_run"] = time.monotonic()
    return marks, scenario.run(), [scenario], {}


def _run_sharded(spec, shards: int, setup_only: bool, gauge: bool
                 ) -> Tuple[Dict[str, float], Any, List[Any], Dict[str, Any]]:
    from repro.shard import coordinator
    seen: Dict[str, Any] = {}

    class CapturingShards(coordinator.InlineShards):
        """The inline executor, noting when its kernels are built."""

        def __init__(self, normal, plan):
            super().__init__(normal, plan)
            seen["marks"] = _set_up(gauge)
            seen["kernels"] = self.kernels
            if setup_only:
                raise _SetupDone
            seen["marks"]["t_run"] = time.monotonic()

    coordinator.InlineShards = CapturingShards
    stats: Dict[str, Any] = {}
    try:
        results = coordinator.run_sharded(spec, shards, stats=stats)
    except _SetupDone:
        return seen["marks"], None, [], {}
    return (seen["marks"], results,
            [kernel.scenario for kernel in seen["kernels"]], stats)


def _set_up(gauge: bool) -> Dict[str, float]:
    """Marks taken once the scenario is built: the time, then (when
    gauging) the reference loop's time, outside every measured region."""
    marks = {"t_setup": time.monotonic()}
    if gauge:
        marks["ref_before"] = reference_s()
    return marks


def _count_misattributed(counter: List[int]) -> None:
    """Wrap ``FlowRx.record_processed`` to count packets recorded under
    a flow other than their own."""
    from repro.io_arch.base import FlowRx
    original = FlowRx.record_processed

    def record_processed(self, record, now):
        if record.packet.flow.name != self.flow.name:
            counter[0] += 1
        original(self, record, now)

    FlowRx.record_processed = record_processed


def _admission_counters(scenarios) -> Dict[str, Dict[str, float]]:
    out = {}
    for scenario in scenarios:
        for host, endpoint in scenario.fabric.endpoints.items():
            arch = endpoint.io_arch
            out[host] = {
                "offered": arch.rx_offered.value,
                "accepted": arch.rx_accepted.value,
                "shed": arch.rx_shed.value,
                "dropped": arch.rx_dropped.value,
                "duplicates": sum(rx.duplicates.value
                                  for rx in arch.flows.values()),
            }
    return out


def run(config: Dict[str, Any]) -> Dict[str, Any]:
    sys.path.insert(0, config["src"])
    mode = config["mode"]
    spec = scenario_spec(config["workload"], config["seed"])
    profiler = None
    misattributed = [0]
    if mode == "trace":
        import cProfile
        import repro.shard.coordinator  # noqa: F401 -- import outside the profile
        import repro.workloads.topo_scenario  # noqa: F401
        _count_misattributed(misattributed)
        profiler = cProfile.Profile(builtins=False)
        profiler.enable()
    setup_only = mode == "setup"
    # The reference loop gauges the machine's speed; under the profiler
    # it would gauge the profiler instead.
    gauge = profiler is None
    if config["shards"] > 1:
        marks, results, scenarios, shard_stats = _run_sharded(
            spec, config["shards"], setup_only, gauge)
    else:
        marks, results, scenarios, shard_stats = _run_single(
            spec, setup_only, gauge)
    t_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if profiler is not None:
        profiler.disable()
    out: Dict[str, Any] = {"setup_s": marks["t_setup"] - config["t_spawn"],
                           "seed": spec["seed"]}
    if gauge:
        refs = [marks["ref_before"]]
        if not setup_only:
            refs.append(reference_s())
        out["ref_s"] = sum(refs) / len(refs)
    if setup_only:
        return out

    from repro.scenario import validate
    from repro.scenario.schema import build_topology

    packets = sum(rx.processed.value for scenario in scenarios
                  for endpoint in scenario.fabric.endpoints.values()
                  for rx in endpoint.io_arch.flows.values())
    normal = validate(spec)
    attempted, failed, host_errors = check_run(
        normal, build_topology(normal), results,
        _admission_counters(scenarios))
    out.update({
        "run_s": t_end - marks["t_run"],
        "packets": packets,
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(json.dumps(
            results, sort_keys=True).encode()).hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "host_errors": host_errors,
    })
    if profiler is not None:
        import pstats
        from layers import counter_layers, profile_layers
        layers = profile_layers(pstats.Stats(profiler).stats)
        layers.update(counter_layers(scenarios, results, packets,
                                     misattributed[0], shard_stats))
        layers["sim.events_per_pkt"] = (layers["sim.events"] / packets
                                        if packets else 0.0)
        out["layers"] = layers
    return out


def main() -> int:
    config = json.loads(sys.argv[1])
    print(json.dumps(run(config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
