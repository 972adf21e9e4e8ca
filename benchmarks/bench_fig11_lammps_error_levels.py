"""Figure 11 — mini-LAMMPS error-rate levels per collective.

Paper setup: error-rate level distribution (low ≤ 15 %, med, high
≥ 85 %) per collective.  Expected shapes: faulty MPI_Barrier is lethal
(large high/med share); MPI_Allreduce — despite being >84 % of all
collective calls — shows a *low* error rate.
"""

import common
import numpy as np

from repro.pruning.mldriven import PAPER_3_LEVELS, level_distribution
from repro.report.text import render_grouped_bars


def bench_fig11_lammps_error_levels(benchmark):
    def run():
        return common.run_campaign("lammps", param_policy="buffer", seed=10, max_points=30)

    campaign = common.once(benchmark, run)
    per_coll = campaign.by_collective()
    groups = {
        coll: level_distribution(sub.error_rates(), PAPER_3_LEVELS)
        for coll, sub in sorted(per_coll.items())
    }
    print()
    print(render_grouped_bars(groups, title="Fig. 11: mini-LAMMPS error-rate levels"))
    means = {c: float(np.mean(sub.error_rates())) for c, sub in per_coll.items()}
    print("mean error rate per collective:", {k: round(v, 3) for k, v in means.items()})

    # Barrier is lethal: everything lands in med/high.
    barrier = groups.get("Barrier")
    assert barrier is not None
    assert barrier["med"] + barrier["high"] >= 0.99
    # Allreduce has a low error rate (the paper calls this out as a
    # surprise given its dominance of the collective mix).
    allreduce = groups["Allreduce"]
    assert allreduce["low"] >= 0.5
    assert means["Allreduce"] <= means["Barrier"]
