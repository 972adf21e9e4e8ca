"""Figure 2 — the root and a non-root rank of an FT MPI_Reduce respond
*differently* to injected faults.

Paper setup: FT, 32 ranks, 100 tests per point, the root and one random
non-root of an MPI_Reduce.  Expected shape: the two outcome mixes
differ noticeably (unlike Fig. 1's equivalent pair).  Faults go into
every parameter: the root/non-root asymmetry of a rooted collective
lives mostly in the non-buffer parameters (tree position, truncation
direction, recv-buffer significance).
"""

from collections import Counter

import common

from repro.report.text import render_grouped_bars
from repro.injection import Campaign, InjectionPoint, enumerate_points
from repro.injection.outcome import OUTCOME_ORDER


def bench_fig02_root_vs_nonroot(benchmark):
    profile = common.get_profile("ft", "S")
    app = common.get_app("ft", "S")

    reduce_point = next(
        p for p in enumerate_points(profile) if p.collective == "Reduce" and p.rank == 0
    )
    summary = profile.summary(0, reduce_point.site_key)
    root = summary.root_world
    nonroot = next(r for r in range(profile.nranks) if r != root)
    points = [
        InjectionPoint(root, reduce_point.collective, reduce_point.site, reduce_point.invocation),
        InjectionPoint(nonroot, reduce_point.collective, reduce_point.site, reduce_point.invocation),
    ]

    def run():
        campaign = Campaign(
            app, profile, tests_per_point=60, param_policy="all", seed=2
        )
        return campaign.run(points)

    result = common.once(benchmark, run)

    groups = {}
    for label, point in (("root", points[0]), ("non-root", points[1])):
        counts = Counter(t.outcome for t in result.points[point].tests)
        total = sum(counts.values())
        groups[label] = {o.value: counts.get(o, 0) / total for o in OUTCOME_ORDER}
    print()
    print(render_grouped_bars(groups, title="Fig. 2: FT Reduce, root vs non-root"))

    tvd = 0.5 * sum(
        abs(groups["root"][k] - groups["non-root"][k]) for k in groups["root"]
    )
    print(f"total-variation distance root vs non-root: {tvd:.2%}")
    # The paper's claim: root and non-root sensitivities DIFFER.
    assert tvd >= 0.05, "root and non-root should respond differently"
