"""Table IV — Eq. 1 correlation between application features and the
error-rate level (mini-LAMMPS).

Paper numbers: Init 0.56, Input 0.69, Compute 0.30, End 0.49,
ErrHdl 0.64, Non-ErrHdl 0.36, nInv 0.41, nDiffGraph 0.47,
StackDepth 0.37.  Expected shapes: the input/init phases and the
error-handling indicator correlate *positively* (>0.5) with
sensitivity; the compute phase and non-error-handling code sit below
0.5; ErrHdl and Non-ErrHdl mirror each other around 0.5.
"""

import common

from repro.report.text import render_table
from repro.ml import TABLE4_FEATURES, correlation_table


def bench_table4_correlation(benchmark):
    profile = common.get_profile("lammps")
    campaign = common.run_campaign("lammps", param_policy="buffer", seed=10, max_points=30)

    table = common.once(benchmark, lambda: correlation_table(profile, campaign))
    print()
    print(
        render_table(
            list(TABLE4_FEATURES),
            [[f"{table[k]:.2f}" for k in TABLE4_FEATURES]],
            title="Table IV: feature vs error-rate-level correlation (Eq. 1)",
        )
    )

    assert set(table) == set(TABLE4_FEATURES)
    assert all(0.0 <= v <= 1.0 for v in table.values())
    # ErrHdl/Non-ErrHdl are complementary indicators.
    assert abs(table["ErrHdl"] + table["Non-ErrHdl"] - 1.0) < 1e-9
    # The paper's strongest signals: early phases & error handling are
    # more sensitivity-correlated than ordinary compute code.
    assert table["Input Phase"] >= table["Compute Phase"]
    assert table["ErrHdl"] >= 0.5 >= table["Non-ErrHdl"]
