"""Ablation 3 — call-stack equivalence granularity for context pruning.

DESIGN.md calls out the grouping key of § III-B as a design choice:
group invocations by the *full* call stack (the paper's rule) or merely
by the call site (leaf-only).  Site-only grouping prunes more points but
merges genuinely different application contexts; full-stack groups
should be more homogeneous — lower within-group error-rate dispersion.
"""

import common
import numpy as np

from repro.report.text import render_table
from repro.injection import Campaign, enumerate_points
from repro.ml.features import invocation_stack


def _groups(profile, points, granularity):
    groups = {}
    for pt in points:
        summary = profile.summary(pt.rank, pt.site_key)
        if granularity == "full-stack":
            key = (pt.rank, pt.site_key, invocation_stack(summary, pt.invocation))
        else:  # site-only
            key = (pt.rank, pt.site_key)
        groups.setdefault(key, []).append(pt)
    return groups


def bench_ablation_stack_granularity(benchmark):
    app = common.get_app("lammps")
    profile = common.get_profile("lammps")
    # Rank 0's Allreduce points: the sites with real invocation variety.
    points = [
        p
        for p in enumerate_points(profile)
        if p.rank == 0 and p.collective == "Allreduce"
    ]

    def measure():
        campaign = Campaign(
            app, profile, tests_per_point=12, param_policy="buffer", seed=77
        )
        result = campaign.run(points)
        rates = {pt: pr.error_rate for pt, pr in result.points.items()}

        out = {}
        for granularity in ("full-stack", "site-only"):
            groups = _groups(profile, points, granularity)
            reduction = 1.0 - len(groups) / len(points)
            dispersions = [
                float(np.std([rates[p] for p in members]))
                for members in groups.values()
                if len(members) > 1
            ]
            out[granularity] = {
                "groups": len(groups),
                "reduction": reduction,
                "mean_within_group_std": float(np.mean(dispersions)) if dispersions else 0.0,
            }
        return out

    out = common.once(benchmark, measure)
    print()
    print(
        render_table(
            ["granularity", "groups", "point reduction", "within-group error-rate std"],
            [
                [g, v["groups"], f"{v['reduction']:.1%}", f"{v['mean_within_group_std']:.3f}"]
                for g, v in out.items()
            ],
            title="Ablation: context-pruning grouping granularity",
        )
    )

    full, site = out["full-stack"], out["site-only"]
    # Site-only merges at least as aggressively...
    assert site["groups"] <= full["groups"]
    # ...but full-stack groups are at least as homogeneous (the property
    # Fig. 3 relies on).
    assert full["mean_within_group_std"] <= site["mean_within_group_std"] + 0.05
