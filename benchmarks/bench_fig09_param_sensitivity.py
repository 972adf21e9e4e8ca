"""Figure 9 — response types per injected MPI_Allreduce parameter.

Paper setup: inject into each of MPI_Allreduce's six parameters
(sendbuf, recvbuf, count, datatype, op, comm) separately across NPB.
Expected shapes: recvbuf faults have little impact (overwritten by the
library); sendbuf faults are more damaging than recvbuf but largely
detected/masked; count/datatype/op/comm faults are dominated by
SEG_FAULT (pointer-like handles, oversized counts).
"""

import common

from repro.report.text import render_grouped_bars
from repro.apps import NPB_NAMES
from repro.injection import Outcome


def bench_fig09_param_sensitivity(benchmark):
    def run_all():
        return {
            name: common.run_campaign(name, param_policy="all", seed=7, max_points=24)
            for name in NPB_NAMES
        }

    campaigns = common.once(benchmark, run_all)

    # Pool per-parameter outcome histograms over the Allreduce points.
    pooled: dict[str, dict[Outcome, int]] = {}
    for campaign in campaigns.values():
        allreduce = campaign.by_collective().get("Allreduce")
        if allreduce is None:
            continue
        for param, hist in allreduce.by_param().items():
            acc = pooled.setdefault(param, {o: 0 for o in hist})
            for o, c in hist.items():
                acc[o] += c

    groups = {}
    for param in ("sendbuf", "recvbuf", "count", "datatype", "op", "comm"):
        hist = pooled.get(param, {})
        total = sum(hist.values()) or 1
        groups[param] = {o.value: c / total for o, c in hist.items()}
    print()
    print(render_grouped_bars(groups, title="Fig. 9: MPI_Allreduce per-parameter response"))

    success = {p: g.get("SUCCESS", 0.0) for p, g in groups.items()}
    seg = {p: g.get("SEG_FAULT", 0.0) for p, g in groups.items()}

    # recvbuf faults have little impact: overwritten by the collective.
    assert success["recvbuf"] >= 0.8
    # sendbuf is more sensitive than recvbuf.
    assert success["sendbuf"] <= success["recvbuf"] + 1e-9
    # The non-buffer parameters often cause SEG_FAULT.
    for param in ("datatype", "op", "comm"):
        assert seg[param] >= 0.4, f"{param} faults should be SEG_FAULT-heavy"
    assert seg["count"] >= 0.15
