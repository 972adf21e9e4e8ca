"""Ablation 5 — how many tests per point are enough?

The paper uses "at least 100 fault injection tests at each fault
injection point to ensure statistical significance" and claims 100 is
sufficient.  This bench checks that claim's logic on real campaign
data: the Wilson confidence interval at n=100 discriminates the
quartile sensitivity levels, and the assigned level stabilises long
before 100 tests.
"""

import common
import numpy as np

from repro.pruning.mldriven import QUARTILE_LEVELS
from repro.report.text import render_table
from repro.steer.stopping import (
    convergence_trace,
    level_stability,
    required_tests,
    wilson_interval,
)
from repro.injection import Campaign, enumerate_points


def bench_ablation_tests_per_point(benchmark):
    app = common.get_app("lammps")
    profile = common.get_profile("lammps")
    points = [
        p for p in enumerate_points(profile) if p.rank == 0 and p.collective == "Allreduce"
    ][:6]

    def run():
        campaign = Campaign(
            app, profile, tests_per_point=100, param_policy="buffer", seed=55
        )
        return campaign.run(points)

    result = common.once(benchmark, run)

    rows = []
    stabilisations = []
    for point, pr in result.points.items():
        errors = [t.outcome.is_error for t in pr.tests]
        trace = convergence_trace(errors)
        stable_at = level_stability(trace, QUARTILE_LEVELS.level_of)
        stabilisations.append(stable_at)
        final = wilson_interval(sum(errors), len(errors))
        rows.append(
            [
                str(point),
                f"{final.rate:.2f}",
                f"[{final.low:.2f}, {final.high:.2f}]",
                QUARTILE_LEVELS.name_of(final.rate),
                stable_at,
            ]
        )
    print()
    print(
        render_table(
            ["point", "error rate", "95% CI @ n=100", "level", "level stable after"],
            rows,
            title="Ablation: adequacy of 100 tests per point",
        )
    )
    need = required_tests(half_width=0.125)
    print(f"tests needed for quartile-level half-width (0.125) at 95%: {need}")

    # The paper's design point: 100 tests suffice for level qualification.
    assert need <= 100
    # Most points' levels settle well before 100 tests.
    assert float(np.median(stabilisations)) <= 100
    for row in rows:
        # CI half-width at n=100 is small enough to separate quartiles.
        lo, hi = row[2].strip("[]").split(",")
        assert (float(hi) - float(lo)) / 2 <= 0.15
