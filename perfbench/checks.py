"""Property checks on one run's simulated outputs.

Each flow's result is one operation. A flow fails when any of its
checks fails; per-host checks decide whether the run is correct. Every
bound here is computed from the scenario spec and the declared
topology, or is a property the model must have -- none is a copy of an
earlier run's output.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Relative tolerance of the payload identity (float rounding only).
IDENTITY_RTOL = 1e-9


def flow_tenants(normal: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """flow name -> its tenant entry, named as the scenario compiler
    names them (tenant name + index)."""
    return {f"{tenant['name']}{i}": tenant
            for tenant in normal["tenants"]
            for i in range(tenant["flows"])}


def flow_sources(normal: Mapping[str, Any], topology
                 ) -> Dict[str, str]:
    """flow name -> source host, by the spec's source assignment rule:
    the tenant's ``sources`` (else every client host), round-robin."""
    clients = [spec.name for spec in topology.client_hosts]
    out = {}
    for tenant in normal["tenants"]:
        sources = list(tenant["sources"]) or clients
        for i in range(tenant["flows"]):
            out[f"{tenant['name']}{i}"] = sources[i % len(sources)]
    return out


def min_rtt_ns(topology, src: str, dst: str) -> float:
    """Smallest round-trip propagation delay over the equal-cost paths
    from ``src`` to ``dst``: forward delay plus reverse (ACK) delay of
    every link."""
    src_switch, src_link = topology.attachment(src)
    dst_switch, dst_link = topology.attachment(dst)
    table = topology.next_hops_toward(dst)

    def rtt(link) -> float:
        return link.delay + link.reverse_delay

    def best(switch: str) -> float:
        if switch == dst_switch:
            return 0.0
        return min(rtt(topology.link_between(switch, nxt)) + best(nxt)
                   for nxt in table[switch])

    return rtt(src_link) + best(src_switch) + rtt(dst_link)


def _closed_loop(normal: Mapping[str, Any], tenant: Mapping[str, Any]
                 ) -> bool:
    demand = normal.get("demand") or {}
    return (tenant["name"] not in demand.get("tenants", {})
            and tenant["open_loop_mpps"] is None)


def check_flow(flow: Mapping[str, Any], tenant: Mapping[str, Any],
               closed_loop: bool, rtt_ns: float) -> List[str]:
    """The failed checks of one flow's result (empty: the flow passed)."""
    errors = []
    payload = tenant["payload"]
    expected_gbps = flow["mpps"] * payload * 8 / 1000
    if not math.isclose(flow["gbps"], expected_gbps, rel_tol=IDENTITY_RTOL):
        errors.append(f"gbps {flow['gbps']:.6g} != mpps x {payload} B x 8 "
                      f"/ 1000 = {expected_gbps:.6g}")
    if not flow["mpps"] > 0:
        errors.append(f"mpps {flow['mpps']!r} is not positive")
    if not flow["p50_us"] <= flow["p99_us"] <= flow["p999_us"]:
        errors.append(f"percentiles out of order: p50 {flow['p50_us']:.6g} "
                      f"p99 {flow['p99_us']:.6g} "
                      f"p99.9 {flow['p999_us']:.6g}")
    if closed_loop:
        per_message = (tenant["chunk_packets"]
                       if tenant["workload"] == "linefs" else 1)
        window = tenant["outstanding"] * per_message
        limit_mpps = window / rtt_ns * 1e3
        if flow["mpps"] > limit_mpps:
            errors.append(f"mpps {flow['mpps']:.6g} above window {window} "
                          f"pkts / RTT {rtt_ns:.6g} ns = {limit_mpps:.6g}")
    return errors


def check_run(normal: Mapping[str, Any], topology,
              results: Mapping[str, Mapping[str, Any]],
              counters: Mapping[str, Mapping[str, float]]
              ) -> Tuple[int, List[Tuple[str, List[str]]], List[str]]:
    """Check one run. ``counters`` holds, per server host, the
    admission counters ``offered/accepted/shed/dropped/duplicates``
    over the whole run.

    Returns ``(attempted, failed flows as (name, errors), host errors)``.
    """
    tenants = flow_tenants(normal)
    sources = flow_sources(normal, topology)
    failed: List[Tuple[str, List[str]]] = []
    host_errors: List[str] = []
    attempted = 0
    for host in sorted(results):
        metrics = results[host]
        goodput = 0.0
        for flow in metrics["flows"]:
            attempted += 1
            tenant = tenants[flow["name"]]
            goodput += flow["mpps"] * tenant["payload"] * 8 / 1000
            errors = check_flow(
                flow, tenant, _closed_loop(normal, tenant),
                min_rtt_ns(topology, sources[flow["name"]], host))
            if errors:
                failed.append((flow["name"], errors))
        access_gbps = topology.attachment(host)[1].rate * 8
        if goodput > access_gbps:
            host_errors.append(f"{host}: payload goodput {goodput:.6g} Gbps "
                               f"above access link {access_gbps:.6g} Gbps")
        audit = metrics.get("audit") or {}
        if not audit.get("ok", False):
            host_errors.append(f"{host}: conservation audit failed: "
                               f"{audit.get('violations')}")
    demand = normal.get("demand")
    if demand is not None:
        host_errors.extend(_check_demand(demand, results, counters))
    return attempted, failed, host_errors


def _check_demand(demand: Mapping[str, Any],
                  results: Mapping[str, Mapping[str, Any]],
                  counters: Mapping[str, Mapping[str, float]]) -> List[str]:
    """Open-loop checks: admission identity, shedding during the crowd,
    and each declared p99.9 SLO."""
    errors = []
    for host in sorted(results):
        c = counters[host]
        total = c["accepted"] + c["shed"] + c["dropped"] + c["duplicates"]
        if c["offered"] != total:
            errors.append(f"{host}: offered {c['offered']} != accepted + "
                          f"shed + dropped + duplicates = {total}")
        extras = results[host]["extras"]
        window_shed = sum(extras.get(f"slo.{tenant}.shed", 0.0)
                          for tenant in demand["tenants"])
        if not window_shed > 0:
            errors.append(f"{host}: nothing shed during the measure window")
        for tenant, entry in sorted(demand["tenants"].items()):
            limit: Optional[float] = (entry.get("slo") or {}).get("p999_us")
            if limit is None:
                continue
            p999 = extras.get(f"slo.{tenant}.p999_us")
            if p999 is None or p999 > limit:
                errors.append(f"{host}: tenant {tenant} p99.9 {p999} us "
                              f"misses its SLO of {limit} us")
    return errors
