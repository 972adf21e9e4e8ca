"""Figure 1 — injecting into two "equivalent" ranks of an LU
MPI_Allreduce produces very similar outcome mixes.

Paper setup: LU, 32 ranks, 100 buffer-fault tests per point, two
randomly chosen (equivalent) ranks of one MPI_Allreduce.  Expected
shape: the two ranks' outcome-type histograms nearly coincide.
"""

from collections import Counter

import common

from repro.report.text import render_grouped_bars
from repro.injection import Campaign, enumerate_points
from repro.injection.outcome import OUTCOME_ORDER
from repro.pruning import equivalence_classes


def _equivalent_rank_pair(profile):
    """Two ranks from the largest equivalence class."""
    classes = equivalence_classes(profile)
    largest = max(classes, key=len)
    return largest[0], largest[1]


def bench_fig01_equivalent_ranks(benchmark):
    profile = common.get_profile("lu", "S")
    app = common.get_app("lu", "S")
    r1, r2 = _equivalent_rank_pair(profile)

    site = next(
        p for p in enumerate_points(profile) if p.collective == "Allreduce" and p.rank == r1
    )
    points = [
        site,
        type(site)(r2, site.collective, site.site, site.invocation),
    ]

    def run():
        campaign = Campaign(
            app, profile, tests_per_point=40, param_policy="buffer", seed=1
        )
        return campaign.run(points)

    result = common.once(benchmark, run)

    groups = {}
    for label, point in (("rand1", points[0]), ("rand2", points[1])):
        counts = Counter(t.outcome for t in result.points[point].tests)
        total = sum(counts.values())
        groups[label] = {o.value: counts.get(o, 0) / total for o in OUTCOME_ORDER}
    print()
    print(render_grouped_bars(groups, title="Fig. 1: LU Allreduce, two equivalent ranks"))

    # The paper's claim: the two equivalent ranks respond alike.
    l1 = max(abs(groups["rand1"][k] - groups["rand2"][k]) for k in groups["rand1"])
    print(f"max per-outcome divergence: {l1:.2%}")
    assert l1 <= 0.30, "equivalent ranks diverged far more than the paper observed"
