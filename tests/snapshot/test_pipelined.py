"""Overlapped forks at a park: a unit's certain tests keep several children in flight.

A unit's slot source hands the engine only tests certain to run (a
list's every task, a stopper's tests up to its certain horizon), so the
engine forks test *k+1* before it reaps test *k*, up to ``width``
children at a time, and still delivers strictly in slot order.  Every
case pins the width explicitly, so nothing depends on the machine's core
count: the results equal scratch test for test under every width, a
failed fork or a killed child costs only its own slot, no child outlives
its park, worker units overlap whether or not a stopper or a
preclassifier decides them, and only a plain generator — which may
decide test *k+1* from result *k* — never has two children in flight.
"""

import os
import signal
from types import SimpleNamespace

import pytest

from repro.exec.sharding import WorkUnit
from repro.exec.supervisor import WorkerState
from repro.injection import Campaign, enumerate_points
from repro.injection.models import draw_task
from repro.injection.outcome import Outcome
from repro.injection.runner import InjectionRunner
from repro.obs.metrics import MetricsRegistry
from repro.snapshot import SnapshotEngine, snapshot_supported
from repro.snapshot.engine import CALIBRATION_FORKS, task_slots
from repro.steer import SequentialStopper

from tests.snapshot.test_cache_and_fallback import _scratch, _sig, _tasks
from tests.snapshot.test_park_or_replay import counts

pytestmark = pytest.mark.skipif(
    not snapshot_supported(), reason="snapshot-and-fork needs os.fork"
)

TESTS = 6
SEED = 23


@pytest.fixture(scope="module")
def runner(lu_app, lu_profile):
    return InjectionRunner(lu_app, lu_profile)


@pytest.fixture(scope="module")
def points(lu_profile):
    """Five points spread over the job, in execution order."""
    space = sorted(enumerate_points(lu_profile), key=lu_profile.comm.execution_key())
    return space[:: len(space) // 5][:5]


@pytest.fixture(scope="module")
def late_point(lu_profile):
    return max(enumerate_points(lu_profile), key=lambda p: p.invocation)


@pytest.fixture
def spy(monkeypatch):
    """Parent-side ``fork`` / ``reap`` events, in the order they happen."""
    events, real_fork, real_reap = [], os.fork, SnapshotEngine._reap

    def fork():
        pid = real_fork()
        if pid:
            events.append("fork")
        return pid

    def reap(pid, rfd):
        events.append("reap")
        return real_reap(pid, rfd)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(SnapshotEngine, "_reap", staticmethod(reap))
    return events


def most_in_flight(events) -> int:
    """The most children forked and not yet reaped at any one time."""
    live = most = 0
    for event in events:
        live += 1 if event == "fork" else -1
        most = max(most, live)
    return most


def calibrated(engine: SnapshotEngine) -> SnapshotEngine:
    """``engine`` past its calibrating forks, so it overlaps from the first."""
    for _ in range(CALIBRATION_FORKS):
        engine._overhead.record(0.003)
    return engine


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestListsOverlap:
    @pytest.mark.parametrize("decision", ["fork", "free"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_results_equal_scratch_under_every_width(
        self, monkeypatch, scratch_reference, lu_app, lu_profile, runner, points, spy,
        width, decision,
    ):
        if decision == "fork":
            monkeypatch.setattr(SnapshotEngine, "fork_pays", lambda self, prefix_s: True)
        reference = scratch_reference(lu_app, lu_profile, points, TESTS, SEED, "all")
        m = MetricsRegistry()
        served = [[] for _ in points]
        SnapshotEngine(runner, metrics=m, width=width).serve(
            (point, task_slots([draw_task(point, SEED, i, t, policy="all") for t in range(TESTS)],
                               served[i]),
             served[i].append, lambda: None, None)
            for i, point in enumerate(points)
        )
        for point, tests in zip(points, served):
            assert _sig(tests) == _sig(reference.points[point].tests)
        forks, replays, fallbacks = counts(m)
        assert forks + replays + fallbacks == len(points) * TESTS and fallbacks == 0
        assert m.timer("snapshot.fork_overhead_s").count == forks
        assert m.gauge("snapshot.width").value == width
        assert most_in_flight(spy) <= width
        if decision == "fork":
            assert most_in_flight(spy) == width

    @pytest.mark.usefixtures("always_fork")
    def test_calibrating_forks_run_solo(self, runner, late_point, spy):
        results = SnapshotEngine(runner, width=3).serve_point(late_point, _tasks(late_point, n=6))
        assert _sig(results) == _sig(_scratch(runner, late_point, n=6))
        assert spy[: 2 * CALIBRATION_FORKS] == ["fork", "reap"] * CALIBRATION_FORKS
        assert spy[2 * CALIBRATION_FORKS:] == ["fork", "fork", "fork", "reap", "reap", "reap"]

    @pytest.mark.usefixtures("always_fork")
    def test_overhead_samples_exclude_waiting_on_siblings(self, runner, late_point):
        m = MetricsRegistry()
        engine = calibrated(SnapshotEngine(runner, metrics=m, width=3))
        engine.serve_point(late_point, _tasks(late_point, n=6))
        overhead, fork_s = m.timer("snapshot.fork_overhead_s"), m.timer("snapshot.fork_s")
        assert overhead.count == fork_s.count == 6
        assert overhead.total < fork_s.total


@pytest.mark.usefixtures("always_fork")
class TestFailuresInTheWindow:
    N = 6

    def test_fork_failure_with_two_in_flight_delivers_them_then_replays(
        self, monkeypatch, runner, late_point
    ):
        real_fork, calls = os.fork, []

        def fork():
            calls.append(None)
            if len(calls) == 3:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        m = MetricsRegistry()
        engine = calibrated(SnapshotEngine(runner, metrics=m, width=3))
        fds = open_fds()
        monkeypatch.setattr(os, "fork", fork)
        results = engine.serve_point(late_point, _tasks(late_point, n=self.N))
        monkeypatch.undo()
        assert _sig(results) == _sig(_scratch(runner, late_point, n=self.N))
        assert len(calls) == 3  # no fork is attempted after the failure
        assert counts(m) == (2, 0, self.N - 2)
        assert open_fds() == fds and no_children_left()

    def test_child_killed_mid_window_is_replayed_in_its_slot(
        self, monkeypatch, runner, late_point
    ):
        real_fork, forked = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
                if len(forked) == 2:  # the middle one of three in flight
                    os.kill(pid, signal.SIGKILL)
            return pid

        m = MetricsRegistry()
        engine = calibrated(SnapshotEngine(runner, metrics=m, width=3))
        monkeypatch.setattr(os, "fork", fork)
        results = engine.serve_point(late_point, _tasks(late_point, n=self.N))
        monkeypatch.undo()
        assert _sig(results) == _sig(_scratch(runner, late_point, n=self.N))
        assert counts(m) == (self.N, 0, 1)
        assert m.timer("snapshot.fork_overhead_s").count == self.N - 1

    def test_what_deliver_raises_kills_every_child_in_flight(self, runner, late_point):
        class Boom(RuntimeError):
            pass

        delivered = []

        def deliver(result):
            delivered.append(result)
            if len(delivered) == 2:
                raise Boom("recording result 1 failed")

        engine = calibrated(SnapshotEngine(runner, width=3))
        fds = open_fds()
        with pytest.raises(Boom):
            engine.serve_point(late_point, _tasks(late_point, n=self.N), on_result=deliver)
        assert _sig(delivered) == _sig(_scratch(runner, late_point, n=2))
        assert no_children_left()
        assert open_fds() == fds

    def test_interrupted_reap_leaves_no_zombie(self, monkeypatch, runner, late_point):
        class Interrupted(Exception):
            pass

        real_read = os.read

        def read(fd, n):
            raise Interrupted

        engine = calibrated(SnapshotEngine(runner, width=3))
        fds = open_fds()
        monkeypatch.setattr(os, "read", read)
        with pytest.raises(Interrupted):
            engine.serve_point(late_point, _tasks(late_point, n=self.N))
        monkeypatch.setattr(os, "read", real_read)
        assert no_children_left()
        assert open_fds() == fds


class _NeverProves:
    """A preclassifier that proves no test: every test runs."""

    def predict(self, point, point_index, test_index):
        return None


class _ProvesOdd:
    """A preclassifier that proves every odd test SEG_FAULT."""

    def predict(self, point, point_index, test_index):
        if test_index % 2:
            return SimpleNamespace(
                param="buffer", bit=test_index, outcome=Outcome.SEG_FAULT,
                rule="odd", detail=f"test {test_index}",
            )
        return None


@pytest.mark.usefixtures("always_fork")
class TestStreamsThatDecideStaySerial:
    def test_generator_input(self, runner, late_point, spy):
        engine = calibrated(SnapshotEngine(runner, width=3))
        results = engine.serve_point(late_point, iter(_tasks(late_point, n=5)))
        assert _sig(results) == _sig(_scratch(runner, late_point, n=5))
        assert spy == ["fork", "reap"] * 5

    @pytest.mark.parametrize("decided_by", ["none", "stopper", "preclassifier"])
    def test_worker_units(self, lu_app, lu_profile, late_point, spy, decided_by):
        """Every worker unit hands out the tests certain to run: with no
        stopper all of them, with this stopper (it cannot close before
        the unit ends) all of them too, and a preclassifier's slots are
        a pure function of the test index.  All three overlap."""
        kwargs = {
            "none": {},
            "stopper": {"stopper": SequentialStopper(ci_width=0.01, min_tests=TESTS)},
            "preclassifier": {"preclassifier": _NeverProves()},
        }[decided_by]
        state = WorkerState(lu_app, lu_profile, "all", SEED, None, True, **kwargs)
        state.engine = calibrated(SnapshotEngine(state.runner, width=3))
        _, tests, registry = state.execute(WorkUnit(0, 0, TESTS), late_point)
        assert len(tests) == TESTS
        assert most_in_flight(spy) == 3
        assert registry.gauge("snapshot.width").value == 3
        # Every fork but the first had a sibling in flight.
        assert registry.counter("snapshot.overlapped_forks").value == TESTS - 1

    def test_predicted_slots_wait_their_turn_between_children(
        self, lu_app, lu_profile, late_point, spy
    ):
        """Proven tests are delivered in their slots, between forked
        ones, without forking; the forked ones still overlap."""
        plain = WorkerState(lu_app, lu_profile, "all", SEED, None, False)
        _, reference, _ = plain.execute(WorkUnit(0, 0, TESTS), late_point)
        state = WorkerState(lu_app, lu_profile, "all", SEED, None, True, preclassifier=_ProvesOdd())
        state.engine = calibrated(SnapshotEngine(state.runner, width=3))
        _, tests, registry = state.execute(WorkUnit(0, 0, TESTS), late_point)
        assert [t.predicted for t in tests] == [t % 2 == 1 for t in range(TESTS)]
        assert _sig(tests[::2]) == _sig(reference[::2])
        assert [t.spec.bit for t in tests[1::2]] == list(range(1, TESTS, 2))
        assert spy.count("fork") == TESTS // 2 and most_in_flight(spy) >= 2
        assert registry.counter("campaign.tests_predicted").value == TESTS // 2


class TestWidthFromCores:
    @pytest.mark.parametrize("jobs, width", [(1, 2), (2, 1)])
    def test_campaign_splits_the_cores_among_its_executors(
        self, monkeypatch, lu_app, lu_profile, points, jobs, width
    ):
        # Pool workers are forked from this process: they see the patch.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        metrics = MetricsRegistry()
        Campaign(
            lu_app, lu_profile, tests_per_point=2, param_policy="all", seed=SEED,
            jobs=jobs, metrics=metrics,
        ).run(points[:2])
        assert metrics.gauge("snapshot.width").value == width

    def test_bare_engine_takes_every_core(self, monkeypatch, runner):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert SnapshotEngine(runner).width == 3
