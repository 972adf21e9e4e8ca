"""Ablation 6 — does the collective *algorithm* change fault sensitivity?

The paper treats the MPI implementation as fixed; this ablation varies
it: the same ``root``-parameter faults run under the binomial-tree and
the chain (pipeline) broadcast schedules.  A corrupted root changes the
rank's position in the schedule, so the *kind* of failure depends on
the schedule's shape — but the bottom line (root faults are fatal
either way) must be algorithm-robust, otherwise FastFIT's sensitivity
conclusions would be artifacts of one MPI implementation.
"""

from collections import Counter

import common
import numpy as np

from repro.report.text import render_grouped_bars
from repro.injection import FaultInjector, FaultSpec, Outcome, enumerate_points
from repro.injection.outcome import OUTCOME_ORDER, classify_exception
from repro.profiling import profile_application
from repro.simmpi import SimMPIError, run_app

N_TESTS = 50


def bench_ablation_algorithms(benchmark):
    app = common.get_app("mg")

    def run_both():
        mixes = {}
        for label, algos in (("binomial", None), ("chain", {"bcast": "chain"})):
            profile = profile_application(app, algorithms=algos)
            golden = profile.golden_results
            budget = max(profile.golden_steps * 8, 50_000)
            point = next(
                p
                for p in enumerate_points(profile)
                if p.collective == "Bcast" and p.rank == 1
            )
            outcomes = []
            for t in range(N_TESTS):
                rng = np.random.default_rng(3000 + t)
                injector = FaultInjector(FaultSpec(point, "root", None), rng)
                try:
                    with np.errstate(all="ignore"):
                        res = run_app(
                            app.main,
                            app.nranks,
                            instruments=[injector],
                            step_budget=budget,
                            algorithms=algos,
                        )
                    outcomes.append(
                        Outcome.SUCCESS
                        if app.compare(golden, res.results)
                        else Outcome.WRONG_ANS
                    )
                except SimMPIError as exc:
                    outcomes.append(classify_exception(exc))
            counts = Counter(outcomes)
            mixes[label] = {o.value: counts.get(o, 0) / N_TESTS for o in OUTCOME_ORDER}
        return mixes

    mixes = common.once(benchmark, run_both)
    print()
    print(
        render_grouped_bars(
            mixes,
            title="Ablation: root-fault outcomes under binomial vs chain broadcast",
        )
    )

    for label, mix in mixes.items():
        # Root faults are fatal regardless of schedule: nearly no SUCCESS.
        assert mix["SUCCESS"] <= 0.1, f"{label}: root faults unexpectedly benign"
        # Failures split between detected (MPI_ERR) and hangs (INF_LOOP).
        assert mix["MPI_ERR"] + mix["INF_LOOP"] >= 0.8
    # The error *kind* split may shift with the schedule, but the total
    # error rate is algorithm-robust.
    err_binomial = 1.0 - mixes["binomial"]["SUCCESS"]
    err_chain = 1.0 - mixes["chain"]["SUCCESS"]
    assert abs(err_binomial - err_chain) <= 0.15
