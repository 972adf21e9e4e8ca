"""Figure 10 — mini-LAMMPS response types under collective buffer faults.

Paper setup: LAMMPS (rhodopsin), faults into the data buffers of its
collectives.  Expected shapes: SUCCESS is the most common response
(~65 % — the statistically tolerant physics masks most flips);
APP_DETECTED is the second most common (LAMMPS' mature error handling,
21.24 %); SEG_FAULT noticeable (~10 %); WRONG_ANS rare (Monte-Carlo-
style verification); INF_LOOP rarest.
"""

import common

from repro.report.text import render_bars
from repro.injection import Outcome


def bench_fig10_lammps_error_types(benchmark):
    def run():
        return common.run_campaign("lammps", param_policy="buffer", seed=10, max_points=30)

    campaign = common.once(benchmark, run)
    fractions = campaign.outcome_fractions()
    print()
    print(
        render_bars(
            {o.value: f for o, f in fractions.items()},
            title="Fig. 10: mini-LAMMPS response types (buffer faults)",
        )
    )

    # SUCCESS dominates (paper: ~65 %).
    assert fractions[Outcome.SUCCESS] == max(fractions.values())
    assert fractions[Outcome.SUCCESS] >= 0.4
    # The application's own error handling catches a substantial share —
    # LAMMPS has the most mature error handling of the suite.
    errors = {o: f for o, f in fractions.items() if o is not Outcome.SUCCESS}
    assert fractions[Outcome.APP_DETECTED] >= 0.5 * max(errors.values())
    # WRONG_ANS is not a common response (statistical verification).
    assert fractions[Outcome.WRONG_ANS] <= 0.25
    # INF_LOOP has the least occurrence among abnormal terminations.
    assert fractions[Outcome.INF_LOOP] <= fractions[Outcome.APP_DETECTED] + 1e-9
