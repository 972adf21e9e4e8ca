"""The adaptive smoke (LU@8, two rounds into the store), as a tier-1 test.

One park per stopper-driven unit: every test is one fork off a cold
prefix, one replay where the prefix is cheaper than a fork, or one
decided in the park where the collective's entry checks reject its
strike.  A regression to re-parking per test shows up as cache hits
(one fast-forward each), a test forked past a stopper's cut as a served
count above the tests run — exact counts, no timing gate.
"""

import sqlite3

import pytest

from repro.apps.npb.lu_kernel import LUKernel
from repro.injection import enumerate_points
from repro.obs.metrics import MetricsRegistry
from repro.profiling import profile_application
from repro.snapshot import snapshot_supported
from repro.snapshot.engine import cpu_count
from repro.steer import adaptive_campaign

pytestmark = pytest.mark.skipif(
    not snapshot_supported(), reason="snapshot-and-fork needs os.fork"
)


def served(counters) -> int:
    return sum(
        counters.get(f"snapshot.{name}", 0) for name in ("forks", "replayed_tests", "decided_tests")
    )


@pytest.fixture(scope="module")
def smoke():
    app = LUKernel(8, rows_per_rank=4, ncols=32, iterations=4, omega=1.2, seed=99)
    profile = profile_application(app)
    pool = enumerate_points(profile)[::3][:24]

    def run(**kwargs):
        metrics = MetricsRegistry()
        result = adaptive_campaign(
            app, profile, pool, accuracy_target=0.65, ci_width=0.4, tests_per_point=25,
            param_policy="all", seed=2026, metrics=metrics, **kwargs,
        )
        return result, metrics.to_dict()["counters"]

    return run


def test_pool_with_store_serves_each_test_once(smoke, tmp_path):
    db = tmp_path / "steer.sqlite"
    r, counters = smoke(jobs=2, db_path=db)
    assert len(r.rounds) == 2, r.rounds
    assert r.reached_target and r.stop_reason == "accuracy", r.stop_reason
    # The benchmark's pinned serial curve: a pool must match it.
    assert r.curve() == [(95, 0.75)], r.curve()
    assert r.tests_saved > 0
    assert counters.get("snapshot.hits", 0) == 0, counters
    assert counters.get("snapshot.fallback_tests", 0) == 0, counters
    # With a store, round 2 re-merges the stored registries of the units
    # it resumes from round 1, so both sides may exceed tests_run.
    assert served(counters) == counters["campaign.tests"] >= r.tests_run, counters
    with sqlite3.connect(db) as conn:
        rows = conn.execute(
            "SELECT round, tests_run, stop_reason FROM steering_rounds ORDER BY round"
        ).fetchall()
    assert len(rows) == 2 and rows[-1][2] == "accuracy", rows


def test_serial_run_walks_each_round_from_one_run(smoke):
    s, counters = smoke()
    assert s.curve() == [(95, 0.75)], s.curve()
    assert 1 <= counters["snapshot.misses"] <= len(s.rounds), counters
    assert counters.get("snapshot.hits", 0) == 0, counters
    assert counters.get("snapshot.fallback_tests", 0) == 0, counters
    # Nothing is served past a cut: every test served is one the run records.
    assert served(counters) == s.tests_run, counters
    assert counters.get("snapshot.decided_tests", 0) > 0, counters
    if cpu_count() >= 2:
        assert counters.get("snapshot.overlapped_forks", 0) > 0, counters
