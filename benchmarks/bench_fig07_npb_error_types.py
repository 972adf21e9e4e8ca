"""Figure 7 — NPB kernels' response types under collective faults.

Paper setup: IS/FT/MG/LU (class B, 32 ranks), faults across the
kernels' collectives.  Expected shapes: INF_LOOP rarest everywhere;
MPI_ERR a significant share (paper: FT-heavy, 46 %); APP_DETECTED
small for NPB; SEG_FAULT very common (paper: IS 44 %, MG 28 %, LU 24 %,
second only to SUCCESS overall).
"""

import common

from repro.report.text import render_grouped_bars
from repro.apps import NPB_NAMES


def bench_fig07_npb_error_types(benchmark):
    def run_all():
        return {
            name: common.run_campaign(name, param_policy="all", seed=7, max_points=24)
            for name in NPB_NAMES
        }

    campaigns = common.once(benchmark, run_all)
    groups = {
        name.upper(): {o.value: f for o, f in c.outcome_fractions().items()}
        for name, c in campaigns.items()
    }
    print()
    print(render_grouped_bars(groups, title="Fig. 7: NPB response types"))

    for name, fracs in groups.items():
        # INF_LOOP has the least occurrence (paper, first observation).
        errors_only = {k: v for k, v in fracs.items() if k != "SUCCESS"}
        assert fracs["INF_LOOP"] <= max(errors_only.values()) + 1e-9
        # SEG_FAULT is a very common error response.
        assert fracs["SEG_FAULT"] >= 0.10, f"{name}: SEG_FAULT unexpectedly rare"

    # MPI_ERR is a significant portion of all errors somewhere (paper: FT).
    assert max(g["MPI_ERR"] for g in groups.values()) >= 0.10
    # NPB's own error handling catches only a small share.
    for name, fracs in groups.items():
        assert fracs["APP_DETECTED"] <= 0.35, f"{name}: APP_DETECTED too common for NPB"
