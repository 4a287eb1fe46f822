"""The benchmark's workloads: which shipped scenario each one runs, how.

Every workload is a shipped scenario template run through the public
scenario path. The seed comes from the command line (default: the
template's own) and is the only input the benchmark changes; the
simulator receives the resulting scenario dict and nothing else.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: name -> template, shard count, and the flows known to fail with the
#: fault that makes them fail (reported next to the failure; never used
#: to decide whether a flow failed).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "incast-32": {
        "template": "incast-32", "shards": 1, "known_faults": {}},
    "multi-tenant-ddio": {
        "template": "multi-tenant-ddio", "shards": 1,
        "known_faults": {
            flow: "fault 2: RdmaEndpoint._absorb (frameworks/rdma.py) "
                  "files every record of a shared-ring burst under the "
                  "polling QP's flow, so KV and other-flow packets "
                  "complete as this LineFS flow's messages"
            for flow in ("dfs10", "dfs11")}},
    "all-to-all-storage-2shard": {
        "template": "all-to-all-storage", "shards": 2, "known_faults": {}},
    "flash-crowd": {
        "template": "flash-crowd", "shards": 1, "known_faults": {}},
}


def scenario_spec(workload: str, seed: Optional[int]) -> Dict[str, Any]:
    """The scenario dict a workload runs at ``seed`` (None: the
    template's own seed)."""
    from repro.scenario.templates import template
    spec = template(WORKLOADS[workload]["template"])
    if seed is not None:
        spec["seed"] = seed
    return spec
