"""Trajectory equivalence: serial ↔ parallel ↔ killed-and-resumed.

The learning loop's contract is that scheduling is invisible: the same
(app, points, config) produces the same rounds, the same (truncated)
test streams, and the same predictions whether batches run in-process,
across a worker pool, through the SQLite store, or after being killed
partway and resumed.  These tests run a pinned LU campaign through each
path and compare full trajectories, not just summaries — at module level
under uncertainty steering with sequential stopping (``campaign
--adaptive``), and in :class:`TestOrderSampler` under the seeded order
with full test streams (``learn``).
"""

import pytest

from repro.injection.space import enumerate_points
from repro.obs.metrics import MetricsRegistry
from repro.pruning import level_labeler
from repro.steer import adaptive_campaign

BATCH_SIZE = 4
SEED = 7
N_POINTS = 12
SAMPLERS = {
    "margin": dict(sampler_mode="margin", ci_width=0.3, tests_per_point=12),
    "order": dict(
        sampler_mode="order", ci_width=None, tests_per_point=6, accuracy_target=0.5
    ),
}


@pytest.fixture(scope="module")
def lu_points(lu_profile):
    return enumerate_points(lu_profile)[:N_POINTS]


@pytest.fixture
def sampler():
    """The configuration under test (:data:`SAMPLERS` key)."""
    return "margin"


@pytest.fixture
def run(sampler, lu_app, lu_profile, lu_points):
    """Run the pinned campaign under ``sampler`` with extra options."""

    def run(**kw):
        return adaptive_campaign(
            lu_app,
            lu_profile,
            lu_points,
            batch_size=BATCH_SIZE,
            seed=SEED,
            param_policy="all",
            **SAMPLERS[sampler],
            **kw,
        )

    return run


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
def serial_results():
    """Each sampler's uninterrupted in-process run, made once."""
    return {}


@pytest.fixture
def serial_result(sampler, run, serial_results):
    if sampler not in serial_results:
        result = run()
        # Sanity: the configuration exercises the early stop, so every
        # equivalence is tested on a run with a predicted remainder.
        assert result.reached_target
        assert result.predicted
        serial_results[sampler] = result
    return serial_results[sampler]


@pytest.fixture
def serial_trajectory(serial_result):
    return trajectory(serial_result)


def test_points_are_tested_or_predicted(serial_result, lu_points):
    tested, predicted = set(serial_result.tested), set(serial_result.predicted)
    assert tested | predicted == set(lu_points)
    assert not tested & predicted
    assert serial_result.total_points == N_POINTS
    assert 0.0 < serial_result.test_reduction < 1.0
    assert serial_result.model is not None and serial_result.model.trees
    n_labels = len(serial_result.label_names)
    assert all(0 <= v < n_labels for v in serial_result.predicted.values())
    history = serial_result.accuracy_history
    assert history == [r.accuracy for r in serial_result.rounds[1:]]
    assert history[-1] == serial_result.final_accuracy >= serial_result.accuracy_target


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


def killer_labeler(kill_after: int):
    """A level labeler that dies on its ``kill_after``-th invocation."""
    base, names = level_labeler()
    calls = {"n": 0}

    def labeler(pr):
        calls["n"] += 1
        if calls["n"] >= kill_after:
            raise Killed(f"injected kill at labeler call {calls['n']}")
        return base(pr)

    return labeler, names


def test_snapshot_free_matches_serial(serial_trajectory, run):
    # Every test replayed from scratch, one at a time, by the plain loop.
    assert trajectory(run(snapshot=False)) == serial_trajectory


@pytest.mark.usefixtures("always_fork")
def test_three_children_in_flight_matches_serial(serial_trajectory, run, monkeypatch):
    # A park forks up to three of the tests the stopper is certain to
    # run before it reaps one, and never one past its cut.
    monkeypatch.setattr("repro.snapshot.engine.cpu_count", lambda: 3)
    metrics = MetricsRegistry()
    assert trajectory(run(metrics=metrics)) == serial_trajectory
    counters = metrics.to_dict()["counters"]
    assert counters["snapshot.overlapped_forks"] > 0
    assert counters["snapshot.forks"] == counters["campaign.tests"]


def test_parallel_matches_serial(serial_trajectory, run):
    assert trajectory(run(jobs=2)) == serial_trajectory


def test_store_backed_matches_serial(serial_trajectory, run, tmp_path):
    stored = run(db_path=tmp_path / "steer.sqlite")
    assert trajectory(stored) == serial_trajectory


def test_parallel_store_matches_serial(serial_trajectory, run, tmp_path):
    both = run(jobs=2, db_path=tmp_path / "steer.sqlite")
    assert trajectory(both) == serial_trajectory


@pytest.mark.parametrize("kill_after", [1, 3])
def test_killed_and_resumed_matches_uninterrupted(
    serial_trajectory, run, tmp_path, kill_after
):
    # Kill the run partway through (after 1 snapshot: mid round 0;
    # after 3: deeper in), then resume from the store.  The replayed
    # units plus the freshly-run remainder must reproduce the
    # uninterrupted trajectory bit for bit.
    db = tmp_path / f"steer-{kill_after}.sqlite"
    with pytest.raises(Killed):
        run(db_path=db, progress_sinks=[KillerSink(kill_after)])
    assert db.exists()
    assert trajectory(run(db_path=db, resume=True)) == serial_trajectory


class TestOrderSampler:
    """Every check above under ``learn()``'s configuration — the seeded
    point order, every test stream in full — plus resumes after a
    labeler crash in training and in verification."""

    @pytest.fixture
    def sampler(self):
        return "order"

    test_points_are_tested_or_predicted = staticmethod(test_points_are_tested_or_predicted)
    test_snapshot_free_matches_serial = staticmethod(test_snapshot_free_matches_serial)
    test_three_children_in_flight_matches_serial = staticmethod(
        test_three_children_in_flight_matches_serial
    )
    test_parallel_matches_serial = staticmethod(test_parallel_matches_serial)
    test_store_backed_matches_serial = staticmethod(test_store_backed_matches_serial)
    test_parallel_store_matches_serial = staticmethod(test_parallel_store_matches_serial)
    test_killed_and_resumed_matches_uninterrupted = staticmethod(
        test_killed_and_resumed_matches_uninterrupted
    )

    @pytest.mark.parametrize(
        "kill_after",
        # Round 0 labels its 4 points for training (calls 1-4); round 1
        # labels its fresh batch for verification (calls 5-8).  Both kills
        # land after the round's tests are in the store.
        [pytest.param(3, id="training"), pytest.param(6, id="verification")],
    )
    def test_labeler_kill_resumes(
        self, serial_trajectory, run, tmp_path, kill_after
    ):
        db = tmp_path / f"kill-{kill_after}.sqlite"
        labeler, names = killer_labeler(kill_after)
        with pytest.raises(Killed):
            run(labeler=labeler, label_names=names, db_path=db)
        assert db.exists()
        assert trajectory(run(db_path=db, resume=True)) == serial_trajectory
