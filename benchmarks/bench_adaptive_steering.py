"""Adaptive steering vs ML-driven injection: budget and fidelity.

Uncertainty sampling with sequential stopping claims two things over
the plain ML-driven loop of § III-C (the same driver, ``repro.steer``,
under the seeded ``"order"`` sampler with full test streams):

* **budget** — uncertainty sampling plus sequential per-point stopping
  reaches the same accuracy target in at most half the injection tests
  (``ratio_vs_ml <= 0.5`` is the acceptance gate);
* **fidelity** — the truncated test streams still reproduce the golden
  LU@8 outcome histogram: per-outcome fractions within
  ``HIST_TOLERANCE`` of the full-budget traditional campaign over the
  same pool (the golden-histogram kernel, wider point slice);

and one thing about itself: the accuracy-vs-budget **curve is
bit-identical** across serial, ``--jobs 4``, and killed-and-resumed
executions.  All three claims are asserted here and recorded in the
committed ``BENCH_adaptive_steering.json``.

Sized via ``FASTFIT_STEER_POINTS`` / ``FASTFIT_STEER_TESTS`` so CI can
smoke it cheaply.
"""

from __future__ import annotations

import os

import common
from repro.apps.npb.lu_kernel import LUKernel
from repro.injection import Campaign, enumerate_points
from repro.profiling import profile_application
from repro.steer import adaptive_campaign

N_POINTS = int(os.environ.get("FASTFIT_STEER_POINTS", "24"))
TESTS_PER_POINT = int(os.environ.get("FASTFIT_STEER_TESTS", "25"))
SEED = 2026
ACCURACY_TARGET = 0.65
CI_WIDTH = 0.4
HIST_TOLERANCE = 0.15

_setup: dict[str, object] = {}
_results: dict[str, object] = {}


def _get_setup():
    if not _setup:
        # The golden-histogram kernel (tests/verify), wider point slice.
        app = LUKernel(8, rows_per_rank=4, ncols=32, iterations=4, omega=1.2, seed=99)
        profile = profile_application(app)
        _setup["app"] = app
        _setup["profile"] = profile
        _setup["pool"] = enumerate_points(profile)[::3][:N_POINTS]
    return _setup["app"], _setup["profile"], _setup["pool"]


def _run_adaptive(**kw):
    app, profile, pool = _get_setup()
    return adaptive_campaign(
        app,
        profile,
        pool,
        accuracy_target=ACCURACY_TARGET,
        ci_width=CI_WIDTH,
        tests_per_point=TESTS_PER_POINT,
        param_policy="all",
        seed=SEED,
        **kw,
    )


def _histogram(tests) -> dict[str, int]:
    hist: dict[str, int] = {}
    for t in tests:
        hist[t.outcome.value] = hist.get(t.outcome.value, 0) + 1
    return hist


def _fractions(hist: dict[str, int]) -> dict[str, float]:
    total = sum(hist.values())
    return {k: v / total for k, v in hist.items()} if total else {}


def bench_ml_driven_baseline(benchmark):
    """The comparison floor: ML-driven campaign, full per-point budget."""
    app, profile, pool = _get_setup()
    result = common.once(
        benchmark,
        lambda: adaptive_campaign(
            app,
            profile,
            pool,
            sampler_mode="order",
            ci_width=None,
            accuracy_target=ACCURACY_TARGET,
            tests_per_point=TESTS_PER_POINT,
            param_policy="all",
            seed=SEED,
        ),
    )
    tests = sum(len(pr.tests) for pr in result.tested.values())
    _results["ml_tests"] = tests
    benchmark.extra_info.update(
        mode="ml_driven",
        n_tests=tests,
        tested_points=len(result.tested),
        predicted_points=len(result.predicted),
        reached_threshold=result.reached_target,
    )


def bench_adaptive_serial(benchmark):
    """Adaptive steering: the budget and fidelity acceptance gates."""
    app, profile, pool = _get_setup()
    result = common.once(benchmark, _run_adaptive)
    _results["serial"] = result
    ratio = result.tests_run / _results["ml_tests"]

    # Fidelity: per-outcome fractions of the truncated streams vs the
    # full-budget traditional campaign over the same pool.
    full = Campaign(
        app, profile, tests_per_point=TESTS_PER_POINT, param_policy="all", seed=SEED
    ).run(pool)
    full_frac = _fractions(_histogram(full.all_tests()))
    adaptive_frac = _fractions(
        _histogram(t for pr in result.tested.values() for t in pr.tests)
    )
    hist_diff = max(
        abs(full_frac.get(k, 0.0) - adaptive_frac.get(k, 0.0))
        for k in set(full_frac) | set(adaptive_frac)
    )

    benchmark.extra_info.update(
        mode="adaptive",
        n_tests=result.tests_run,
        tests_saved=result.tests_saved,
        tested_points=len(result.tested),
        predicted_points=len(result.predicted),
        stop_reason=result.stop_reason,
        curve=result.curve(),
        ratio_vs_ml=ratio,
        histogram_max_abs_diff=hist_diff,
        histogram_full=_histogram(full.all_tests()),
        histogram_adaptive=_histogram(
            t for pr in result.tested.values() for t in pr.tests
        ),
    )
    assert result.reached_target, f"adaptive stopped on {result.stop_reason}"
    assert ratio <= 0.5, f"adaptive used {ratio:.0%} of the ML-driven budget"
    assert hist_diff <= HIST_TOLERANCE, f"histogram drifted by {hist_diff:.3f}"


class _Killed(RuntimeError):
    pass


class _KillerSink:
    def __init__(self, after: int):
        self.after = after
        self.emits = 0

    def emit(self, snap):
        self.emits += 1
        if self.emits >= self.after:
            raise _Killed(f"injected kill after {self.emits} snapshots")

    def close(self):
        pass


def bench_adaptive_equivalence(benchmark, tmp_path):
    """Curve bit-identity: serial == --jobs 4 == killed-and-resumed."""
    serial = _results["serial"]

    def run_variants():
        jobs4 = _run_adaptive(jobs=4)
        db = tmp_path / "steer.sqlite"
        try:
            _run_adaptive(db_path=db, progress_sinks=[_KillerSink(2)])
        except _Killed:
            pass
        resumed = _run_adaptive(db_path=db, resume=True)
        return jobs4, resumed

    jobs4, resumed = common.once(
        benchmark, run_variants, n_tests=2 * serial.tests_run
    )
    curves = {
        "serial": serial.curve(),
        "jobs4": jobs4.curve(),
        "killed_resumed": resumed.curve(),
    }
    identical = curves["serial"] == curves["jobs4"] == curves["killed_resumed"]
    benchmark.extra_info.update(
        mode="equivalence", curves=curves, curves_identical=identical
    )
    assert identical, f"curves diverged: {curves}"
    assert jobs4.predicted == serial.predicted
    assert resumed.predicted == serial.predicted
    assert set(jobs4.tested) == set(resumed.tested) == set(serial.tested)
