"""Ablation 1 — per-rank schedule expansion vs a central rendezvous.

DESIGN.md claims the per-rank expansion of collectives (every rank
derives its schedule from its *own* parameters) is what lets corrupted
``root`` parameters manifest as deadlocks (INF_LOOP).  A central
executor that runs the collective once with the clean parameters would
silently "fix" the mismatch.

The central-rendezvous world is emulated with a sanitising instrument
installed *after* the injector: it restores the root parameter to its
clean value, exactly as a central executor keyed on the majority's
arguments would behave.
"""

from collections import Counter

import common
import numpy as np

from repro.report.text import render_grouped_bars
from repro.injection import FaultInjector, FaultSpec, Outcome, enumerate_points
from repro.injection.outcome import OUTCOME_ORDER, classify_exception
from repro.simmpi import Instrument, SimMPIError, run_app

N_TESTS = 60


class SanitiseRoot(Instrument):
    """Undo root-parameter corruption (the central-rendezvous stand-in)."""

    def __init__(self, clean_root: int):
        self.clean_root = clean_root

    def on_collective(self, ctx, call):
        if "root" in call.args:
            call.args["root"] = self.clean_root


def _outcome(app, nranks, instruments, budget, compare):
    try:
        result = run_app(app, nranks, instruments=instruments, step_budget=budget)
    except SimMPIError as exc:
        return classify_exception(exc)
    return Outcome.SUCCESS if compare(result.results) else Outcome.WRONG_ANS


def bench_ablation_rendezvous(benchmark):
    app = common.get_app("mg")
    profile = common.get_profile("mg")
    golden = profile.golden_results
    budget = max(profile.golden_steps * 8, 50_000)
    point = next(p for p in enumerate_points(profile) if p.collective == "Bcast")
    clean_root = profile.summary(point.rank, point.site_key).root_world

    def run_both():
        mixes = {}
        for mode in ("per-rank schedules", "central rendezvous"):
            outcomes = []
            for t in range(N_TESTS):
                rng = np.random.default_rng(1000 + t)
                injector = FaultInjector(FaultSpec(point, "root", None), rng)
                instruments = [injector]
                if mode == "central rendezvous":
                    instruments.append(SanitiseRoot(clean_root))
                outcomes.append(
                    _outcome(
                        app.main,
                        app.nranks,
                        instruments,
                        budget,
                        lambda res: app.compare(golden, res),
                    )
                )
            counts = Counter(outcomes)
            mixes[mode] = {o.value: counts.get(o, 0) / N_TESTS for o in OUTCOME_ORDER}
        return mixes

    mixes = common.once(benchmark, run_both)
    print()
    print(
        render_grouped_bars(
            mixes, title="Ablation: root-fault outcomes, schedule expansion vs rendezvous"
        )
    )

    faulty = mixes["per-rank schedules"]
    central = mixes["central rendezvous"]
    # The design claim: only the per-rank model produces hangs/crashes
    # from root corruption; the central model masks everything.
    assert faulty["INF_LOOP"] + faulty["MPI_ERR"] > 0.3
    assert central["SUCCESS"] >= 0.99
