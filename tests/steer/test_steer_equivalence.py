"""Trajectory equivalence: serial ↔ parallel ↔ killed-and-resumed.

The adaptive driver's contract is that scheduling is invisible: the same
(app, points, config) produces the same rounds, the same truncated test
streams, and the same predictions whether batches run in-process, across
a worker pool, through the SQLite store, or after being killed partway
and resumed.  These tests run the pinned LU campaign through each path
and compare full trajectories, not just summaries.
"""

import pytest

from repro.injection.space import enumerate_points
from repro.obs.metrics import MetricsRegistry
from repro.steer import adaptive_campaign

TESTS_PER_POINT = 12
BATCH_SIZE = 4
SEED = 7
CI_WIDTH = 0.3
N_POINTS = 12


@pytest.fixture(scope="module")
def lu_points(lu_profile):
    return enumerate_points(lu_profile)[:N_POINTS]


def run_adaptive(app, profile, points, **kw):
    return adaptive_campaign(
        app,
        profile,
        points,
        tests_per_point=TESTS_PER_POINT,
        batch_size=BATCH_SIZE,
        ci_width=CI_WIDTH,
        seed=SEED,
        param_policy="all",
        **kw,
    )


def trajectory(result):
    """Everything observable about a steering run, in comparable form."""
    return {
        "rounds": [
            (r.round_no, r.point_indices, r.tests_planned, r.tests_run,
             r.accuracy, r.mean_uncertainty)
            for r in result.rounds
        ],
        "curve": result.curve(),
        "stop_reason": result.stop_reason,
        "reached": result.reached_target,
        "predicted": {str(pt): lbl for pt, lbl in sorted(result.predicted.items())},
        "tested": {
            str(pt): [
                (t.spec.param, str(t.spec.bit), t.outcome.value)
                for t in pr.tests
            ]
            for pt, pr in sorted(result.tested.items())
        },
    }


@pytest.fixture(scope="module")
def serial_trajectory(lu_app, lu_profile, lu_points):
    return trajectory(run_adaptive(lu_app, lu_profile, lu_points))


class Killed(RuntimeError):
    """Injected mid-campaign crash."""


class KillerSink:
    """Progress sink that raises after a fixed number of snapshots."""

    def __init__(self, after: int):
        self.after = after
        self.emits = 0

    def emit(self, snap):
        self.emits += 1
        if self.emits >= self.after:
            raise Killed(f"injected kill after {self.emits} snapshots")

    def close(self):
        pass


def test_snapshot_free_matches_serial(serial_trajectory, lu_app, lu_profile, lu_points):
    # Every test replayed from scratch, one at a time, by the plain loop.
    scratch = run_adaptive(lu_app, lu_profile, lu_points, snapshot=False)
    assert trajectory(scratch) == serial_trajectory


@pytest.mark.usefixtures("always_fork")
def test_three_children_in_flight_matches_serial(
    serial_trajectory, monkeypatch, lu_app, lu_profile, lu_points
):
    # A park forks up to three of the tests the stopper is certain to
    # run before it reaps one, and never one past its cut.
    monkeypatch.setattr("repro.snapshot.engine.cpu_count", lambda: 3)
    metrics = MetricsRegistry()
    wide = run_adaptive(lu_app, lu_profile, lu_points, metrics=metrics)
    assert trajectory(wide) == serial_trajectory
    counters = metrics.to_dict()["counters"]
    assert counters["snapshot.overlapped_forks"] > 0
    assert counters["snapshot.forks"] == counters["campaign.tests"]


def test_parallel_matches_serial(serial_trajectory, lu_app, lu_profile, lu_points):
    parallel = run_adaptive(lu_app, lu_profile, lu_points, jobs=2)
    assert trajectory(parallel) == serial_trajectory


def test_store_backed_matches_serial(
    serial_trajectory, lu_app, lu_profile, lu_points, tmp_path
):
    stored = run_adaptive(
        lu_app, lu_profile, lu_points, db_path=tmp_path / "steer.sqlite"
    )
    assert trajectory(stored) == serial_trajectory


def test_parallel_store_matches_serial(
    serial_trajectory, lu_app, lu_profile, lu_points, tmp_path
):
    both = run_adaptive(
        lu_app, lu_profile, lu_points, jobs=2, db_path=tmp_path / "steer.sqlite"
    )
    assert trajectory(both) == serial_trajectory


@pytest.mark.parametrize("kill_after", [1, 3])
def test_killed_and_resumed_matches_uninterrupted(
    serial_trajectory, lu_app, lu_profile, lu_points, tmp_path, kill_after
):
    # Kill the run partway through (after 1 snapshot: mid round 0;
    # after 3: deeper in), then resume from the store.  The replayed
    # units plus the freshly-run remainder must reproduce the
    # uninterrupted trajectory bit for bit.
    db = tmp_path / f"steer-{kill_after}.sqlite"
    with pytest.raises(Killed):
        run_adaptive(
            lu_app,
            lu_profile,
            lu_points,
            db_path=db,
            progress_sinks=[KillerSink(kill_after)],
        )
    assert db.exists()
    resumed = run_adaptive(lu_app, lu_profile, lu_points, db_path=db, resume=True)
    assert trajectory(resumed) == serial_trajectory
