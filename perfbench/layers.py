"""Per-layer numbers for the traced run, measured from outside ``src/``.

A layer is a ``repro`` package. Self time comes from a ``cProfile``
profile of the run: a function's internal time is charged to the
package that defines it, so a layer's self time excludes the layers it
calls. Events come from the same profile's caller table:

- every call the kernel's run loop makes is one calendar event
  (``sim.events``);
- each event is owned by the package of the callee it dispatches to: a
  plain callback directly, a process by the generator it resumes, a
  fired ``Event`` by the callbacks it runs (``<layer>.events``);
- the rest are the kernel's own (``sim.kernel_events``): cancelled
  entries, events fired with no waiter, condition checks. It is net of
  the rare event that resumes more than one waiter, which every waiter's
  layer counts.

Counters are read from each layer's public state after the run: the
audit ledger's balances for ``hw``, the architecture's counters for
``core`` and ``io_arch``, and so on (see README.md for the list).
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Dict, Iterable, List, Mapping

#: The kernel loops that pop calendar entries and call them.
RUN_LOOPS = frozenset({"run", "_run_domains", "run_until", "step",
                       "_run_debug"})
#: Kernel methods that resume a process generator.
RESUMERS = frozenset({"_step_send", "_step_throw"})
#: Layers whose self time the traced run reports.
SELF_TIME_LAYERS = ("sim", "hw", "net", "topo", "core", "io_arch", "apps",
                    "frameworks", "demand", "shard", "workloads",
                    "scenario", "audit")
#: Layers whose owned events the traced run reports (the rest are
#: ``sim.kernel_events``).
EVENT_LAYERS = ("hw", "net", "topo", "core", "io_arch", "apps",
                "frameworks", "demand", "shard", "workloads")


def _label(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class PackageMap:
    """Maps a source file to the ``repro`` package that owns it."""

    def __init__(self):
        import repro
        self.root = os.path.dirname(repro.__file__) + os.sep

    def __call__(self, path: str) -> str:
        if not path.startswith(self.root):
            return "other"
        rel = path[len(self.root):]
        return rel.split(os.sep, 1)[0] if os.sep in rel else "repro"


def profile_layers(stats: Mapping[tuple, tuple]) -> Dict[str, float]:
    """Self time, events and one-shot ``Event`` objects per layer from a
    ``pstats.Stats(...).stats`` table."""
    from repro.shard.kernel import ShardKernel
    from repro.sim import engine

    package = PackageMap()
    engine_file = engine.__file__
    self_s: Counter = Counter()
    events: Counter = Counter()
    total_events = 0
    for (path, _line, name), (_cc, _nc, tt, _ct, callers) in stats.items():
        owner = package(path)
        self_s[owner] += tt
        for (cpath, _cline, cname), caller_stat in callers.items():
            if cpath != engine_file:
                continue
            calls = caller_stat[0]
            if cname in RUN_LOOPS:
                if path == engine_file and name == "set_domain":
                    continue
                total_events += calls
                if path != engine_file:
                    events[owner] += calls
            elif path != engine_file and (cname in RESUMERS
                                          or cname == "_process"):
                events[owner] += calls

    init = stats.get(_label(engine.Event.__init__))
    not_oneshot = {_label(engine.Timeout.__init__),
                   _label(engine.Process.__init__)}
    oneshot = sum(stat[0] for caller, stat in init[4].items()
                  if caller not in not_oneshot) if init else 0
    inject = stats.get(_label(ShardKernel.inject))

    out: Dict[str, float] = {"sim.events": total_events,
                             "sim.kernel_events": total_events - sum(
                                 n for layer, n in events.items()
                                 if layer != "sim"),
                             "sim.oneshot_events": oneshot,
                             "shard.channel_msgs": inject[1] if inject else 0}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in EVENT_LAYERS:
        out[f"{layer}.events"] = events[layer]
    return out


def _ledger_balances(scenarios: Iterable[Any]) -> List[Dict[str, Any]]:
    entries = []
    for scenario in scenarios:
        report = scenario.reconciler.check(now=scenario.fabric.sim.now)
        entries.extend(report.to_dict(include_balances=True)["accounts"])
    return entries


def _balance(entries, suffix: str, side: str, term: str) -> float:
    return sum(entry[side][term] for entry in entries
               if entry["account"].endswith(suffix))


def counter_layers(scenarios: List[Any], results: Mapping[str, Any],
                   packets: int, misattributed: int,
                   shard_stats: Mapping[str, Any]) -> Dict[str, float]:
    """Counters of every layer after the run, summed over server hosts
    (and over shard kernels, which each hold their own hosts)."""
    entries = _ledger_balances(scenarios)
    endpoints = [endpoint for scenario in scenarios
                 for endpoint in scenario.fabric.endpoints.values()]
    archs = [endpoint.io_arch for endpoint in endpoints]
    records = [record for scenario in scenarios
               for bucket in (scenario.involved, scenario.bypass)
               for host_records in bucket.values()
               for record in host_records]

    def arch_sum(attr: str) -> float:
        return sum(getattr(arch, attr).value for arch in archs
                   if hasattr(arch, attr))

    offered = arch_sum("rx_offered")
    shard_events = shard_stats.get("events") or []
    out: Dict[str, float] = {
        "hw.dma_writes": _balance(entries, ".dma.engine", "credits",
                                  "issued"),
        "hw.pcie_bytes": _balance(entries, ".hw.pcie_credits", "debits",
                                  "acquired"),
        "hw.iio_completed": _balance(entries, ".hw.iio", "credits",
                                     "completed"),
        "hw.llc_inserted_bytes": _balance(entries, ".hw.llc", "debits",
                                          "inserted"),
        "hw.llc_evicted_bytes": _balance(entries, ".hw.llc", "credits",
                                         "evicted"),
        "hw.llc_miss_rate": max(metrics["llc_miss_rate"]
                                for metrics in results.values()),
        "hw.nicmem_bytes": _balance(entries, ".hw.nicmem", "debits",
                                    "allocated"),
        "net.pkts_forwarded": sum(
            port.tx_packets.value for scenario in scenarios
            for switch in scenario.fabric.switches.values()
            for port in switch.ports.values()),
        "net.duplicates": sum(rx.duplicates.value for arch in archs
                              for rx in arch.flows.values()),
        "core.fast_pkts": arch_sum("fast_packets"),
        "core.slow_pkts": arch_sum("slow_packets"),
        "core.overdraft": arch_sum("overdraft"),
        "core.credits_reclaimed": arch_sum("credit_reclaimed"),
        "core.elastic_resident": sum(
            len(buf.entries) for arch in archs
            if hasattr(arch, "buffer_manager")
            for buf in arch.buffer_manager.buffers.values()),
        "core.shed": arch_sum("rx_shed"),
        "core.accept_ratio": (arch_sum("rx_accepted") / offered
                              if offered else 0.0),
        "io_arch.ring_full_drops": arch_sum("ring_full_drops"),
        "io_arch.guard_marks": arch_sum("guard_marks"),
        "apps.pkts_processed": packets,
        "apps.misattributed": misattributed,
        "frameworks.rdma_completions": sum(
            record.server.endpoint.messages_completed.value
            for record in records
            if hasattr(record.server, "endpoint")),
        "demand.arrivals": sum(
            record.source.messages_submitted.value for record in records
            if hasattr(record.source, "messages_submitted")),
        "shard.barrier_rounds": shard_stats.get("rounds") or 0,
        "shard.event_imbalance": (
            max(shard_events) * len(shard_events) / sum(shard_events)
            if shard_events else 0.0),
    }
    return out
