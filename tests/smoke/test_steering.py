"""Adaptive steering on the golden-histogram LU@8 kernel (24 points ×
25 tests, seed 2026): the ``--jobs 4`` run into the store and its
report, and the steering gates against the ML-driven loop and the full
campaign.  The serial half of the store smoke is tier-1
(``tests/steer/test_adaptive_smoke.py``)."""

import itertools
import sqlite3

import pytest

from repro.apps.npb.lu_kernel import LUKernel
from repro.cli import main
from repro.injection import Campaign, enumerate_points
from repro.obs.metrics import MetricsRegistry
from repro.profiling import profile_application
from repro.steer import adaptive_campaign
from tests.conftest import KillSink
from tests.steer.test_adaptive_smoke import served

pytestmark = pytest.mark.smoke

TESTS_PER_POINT = 25
SEED = 2026
ACCURACY_TARGET = 0.65
#: Largest per-outcome fraction drift of the adaptive loop's truncated
#: streams from the full campaign over the same pool.
HIST_TOLERANCE = 0.15


class Killed(RuntimeError):
    pass


@pytest.fixture(scope="module")
def kernel():
    app = LUKernel(8, rows_per_rank=4, ncols=32, iterations=4, omega=1.2, seed=99)
    profile = profile_application(app)
    return app, profile, enumerate_points(profile)[::3][:24]


@pytest.fixture(scope="module")
def steer(kernel):
    app, profile, pool = kernel

    def run(**kwargs):
        return adaptive_campaign(
            app, profile, pool, accuracy_target=ACCURACY_TARGET, ci_width=0.4,
            tests_per_point=TESTS_PER_POINT, param_policy="all", seed=SEED, **kwargs,
        )

    return run


@pytest.fixture(scope="module")
def serial(steer):
    return steer()


@pytest.fixture(scope="module")
def stored(steer, tmp_path_factory):
    db = tmp_path_factory.mktemp("steer") / "steer.sqlite"
    metrics = MetricsRegistry()
    result = steer(jobs=4, db_path=db, metrics=metrics)
    return result, metrics.to_dict()["counters"], db


def test_jobs4_into_the_store_serves_each_test_once(stored):
    r, counters, db = stored
    assert len(r.rounds) == 2, r.rounds
    assert r.reached_target and r.stop_reason == "accuracy", r.stop_reason
    assert r.curve() == [(95, 0.75)], r.curve()
    assert r.tests_saved > 0, r.tests_saved
    assert counters.get("snapshot.hits", 0) == 0, counters
    assert counters.get("snapshot.fallback_tests", 0) == 0, counters
    # With a store, round 2 re-merges the stored registries of the units
    # it resumes from round 1, so both sides exceed tests_run.
    assert served(counters) == counters["campaign.tests"] >= r.tests_run, counters
    with sqlite3.connect(db) as conn:
        rows = conn.execute(
            "SELECT round, tests_run, stop_reason FROM steering_rounds ORDER BY round"
        ).fetchall()
    assert len(rows) == 2, rows
    assert rows[-1][2] == "accuracy", rows


def test_report_renders_the_steering_section(stored, tmp_path, capsys):
    out = tmp_path / "steer-report"
    assert main(["report", "--db", str(stored[2]), "--out", str(out)]) == 0
    assert 'id="steering"' in (out / "index.html").read_text()


def test_adaptive_reaches_the_target_on_half_the_ml_driven_budget(kernel, serial):
    app, profile, pool = kernel
    ml = adaptive_campaign(
        app, profile, pool, sampler_mode="order", ci_width=None,
        accuracy_target=ACCURACY_TARGET, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED,
    )
    ml_tests = sum(len(pr.tests) for pr in ml.tested.values())
    assert serial.reached_target, serial.stop_reason
    assert serial.tests_run <= 0.5 * ml_tests, (serial.tests_run, ml_tests)


def test_truncated_streams_keep_the_full_campaign_histogram(kernel, serial):
    app, profile, pool = kernel
    full = Campaign(
        app, profile, tests_per_point=TESTS_PER_POINT, param_policy="all", seed=SEED
    ).run(pool)

    def fractions(tests):
        outcomes = [t.outcome.value for t in tests]
        return {k: outcomes.count(k) / len(outcomes) for k in set(outcomes)}

    want = fractions(full.all_tests())
    got = fractions(t for pr in serial.tested.values() for t in pr.tests)
    drift = max(abs(want.get(k, 0.0) - got.get(k, 0.0)) for k in set(want) | set(got))
    assert drift <= HIST_TOLERANCE, (drift, want, got)


def test_curve_is_identical_serial_jobs4_and_killed_resumed(steer, serial, tmp_path):
    jobs4 = steer(jobs=4)
    db = tmp_path / "steer.sqlite"
    emits = itertools.count(1)
    with pytest.raises(Killed):
        steer(db_path=db, progress_sinks=[
            KillSink(Killed("at the second snapshot"), lambda done, total: next(emits) >= 2)
        ])
    resumed = steer(db_path=db, resume=True)
    assert serial.curve() == jobs4.curve() == resumed.curve()
    assert jobs4.predicted == serial.predicted
    assert resumed.predicted == serial.predicted
    assert set(jobs4.tested) == set(resumed.tested) == set(serial.tested)
