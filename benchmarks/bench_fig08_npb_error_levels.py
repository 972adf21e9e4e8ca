"""Figure 8 — NPB error-rate levels per collective type.

Paper setup: per-collective error-rate levels, low ≤ 15 %,
med 15–85 %, high ≥ 85 % of instances causing errors, with faults in
the data buffers (the paper's default; Barrier has no buffer, so its
faults fall back to the communicator — which is exactly why faulty
barriers are so lethal).  Expected shapes: MPI_Barrier (and Reduce)
hit the applications hardest; MPI_Alltoallv causes the least damage.
"""

import common
import numpy as np

from repro.pruning.mldriven import PAPER_3_LEVELS, level_distribution
from repro.report.text import render_grouped_bars
from repro.apps import NPB_NAMES


def bench_fig08_npb_error_levels(benchmark):
    def run_all():
        return {
            name: common.run_campaign(name, param_policy="buffer", seed=8, max_points=24)
            for name in NPB_NAMES
        }

    campaigns = common.once(benchmark, run_all)

    # Pool the points of all four kernels per collective type.
    rates_by_collective: dict[str, list[float]] = {}
    for campaign in campaigns.values():
        for coll, sub in campaign.by_collective().items():
            rates_by_collective.setdefault(coll, []).extend(sub.error_rates())

    groups = {
        coll: level_distribution(rates, PAPER_3_LEVELS)
        for coll, rates in sorted(rates_by_collective.items())
    }
    print()
    print(render_grouped_bars(groups, title="Fig. 8: NPB error-rate levels per collective"))
    means = {c: float(np.mean(r)) for c, r in rates_by_collective.items()}
    print("mean error rate per collective:", {k: round(v, 3) for k, v in means.items()})

    # Shape assertions (paper): faulty Barrier is the most damaging
    # collective, and Allreduce shows a low error rate despite being the
    # most frequent collective.
    assert "Barrier" in means and means["Barrier"] == max(means.values())
    assert groups["Allreduce"]["low"] >= 0.4
    # Known deviation from the paper: our Alltoallv is NOT the mildest —
    # IS's conservation checksum catches every corrupted key, whereas
    # the paper's IS misses most of them.  Recorded in EXPERIMENTS.md.
    print(f"(deviation) Alltoallv mean error rate: {means.get('Alltoallv', 0):.2f}")
