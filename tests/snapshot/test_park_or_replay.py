"""Park or replay, decided at the park.

At every park the engine compares what re-running the fault-free prefix
would cost (its own clock) with the fork overhead it has measured
(``snapshot.fork_s`` minus the child's continuation time) and serves
each test by the cheaper of ``os.fork()`` and an in-park ``run_one``.
The choice may change a test's cost and nothing else: pinned either way
or left alone, results equal the scratch reference test for test, every
test is counted exactly once, and a replayed test is delivered before
the next one is pulled — like a forked one.
"""

import os
import time

import pytest

from repro.apps.npb.lu_kernel import LUKernel
from repro.exec import supervisor
from repro.exec.sharding import WorkUnit
from repro.exec.supervisor import WorkerState
from repro.injection import Campaign, enumerate_points
from repro.injection.runner import InjectionRunner
from repro.injection.targets import buffer_targets
from repro.obs.metrics import MetricsRegistry
from repro.profiling import profile_application
from repro.snapshot import SnapshotEngine, snapshot_supported
from repro.steer import SequentialStopper

from tests.snapshot.test_cache_and_fallback import _scratch, _sig, _tasks
from tests.store.test_equivalence import stream_signature

pytestmark = pytest.mark.skipif(
    not snapshot_supported(), reason="snapshot-and-fork needs os.fork"
)

TESTS = 6
SEED = 11


def pin(monkeypatch, *decisions, then):
    """``fork_pays`` answers ``decisions`` in turn, and ``then`` ever after."""
    script = iter(decisions)
    monkeypatch.setattr(SnapshotEngine, "fork_pays", lambda self, prefix_s: next(script, then))


@pytest.fixture(scope="module")
def runner(lu_app, lu_profile):
    return InjectionRunner(lu_app, lu_profile)


@pytest.fixture(scope="module")
def spread(lu_profile):
    """Six points spread over the job: shallow and deep prefixes."""
    space = enumerate_points(lu_profile)
    return space[:: len(space) // 6][:6]


@pytest.fixture(scope="module")
def reference(scratch_reference, lu_app, lu_profile, spread):
    return scratch_reference(lu_app, lu_profile, spread, TESTS, SEED, "all")


def counts(metrics):
    counters = metrics.to_dict()["counters"]
    return tuple(
        counters.get(f"snapshot.{name}", 0)
        for name in ("forks", "replayed_tests", "decided_tests", "fallback_tests")
    )


class TestDecision:
    def test_forks_until_three_overheads_are_known_then_compares_with_the_least(self, runner):
        engine = SnapshotEngine(runner)
        for cold_then_steady in (0.018, 0.0030):
            engine._overhead.record(cold_then_steady)
            assert engine.fork_pays(0.0001)  # one cold sample must not decide
        engine._overhead.record(0.0027)
        assert not engine.fork_pays(0.0026)
        assert engine.fork_pays(0.0027) and engine.fork_pays(0.1)
        assert engine.fork_pays(float("inf"))  # a restored run: prefix cost unknown

    @pytest.mark.parametrize("slow_first_fork", [False, True])
    def test_deep_points_fork_every_test(self, monkeypatch, slow_first_fork):
        """LU on 8 ranks, deepest points: the prefix costs tens of forks.
        A process's first ``os.fork()`` is cold (18 ms against 2.7 ms on
        the benchmark VM); deciding from that one sample would replay
        every later test.  Policy ``buffer`` on points with a data
        buffer: every strike lands in rank memory, so none is decided in
        the park."""
        app = LUKernel(8, rows_per_rank=16, ncols=128, iterations=30, omega=1.2, seed=99)
        profile = profile_application(app)
        points = sorted(enumerate_points(profile), key=lambda p: (-p.invocation, p.rank, p.site))[:2]
        assert all(buffer_targets(p.collective) for p in points)
        real_fork, calls = os.fork, []

        def fork():
            calls.append(None)
            if slow_first_fork and len(calls) == 1:
                time.sleep(0.3)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        metrics = MetricsRegistry()
        Campaign(
            app, profile, tests_per_point=5, param_policy="buffer", seed=SEED, metrics=metrics
        ).run(points)
        assert counts(metrics) == (10, 0, 0, 0) and len(calls) == 10
        assert metrics.timer("snapshot.fork_overhead_s").count == 10
        assert metrics.timer("snapshot.prefix_s").count == 2
        if slow_first_fork:
            assert metrics.timer("snapshot.fork_overhead_s").max >= 0.3


class TestEquivalence:
    @pytest.mark.parametrize("pinning", ["fork", "replay", "unpinned"])
    def test_results_equal_scratch_and_every_test_is_counted_once(
        self, monkeypatch, reference, lu_app, lu_profile, spread, pinning
    ):
        if pinning != "unpinned":
            pin(monkeypatch, then=pinning == "fork")
        metrics = MetricsRegistry()
        result = Campaign(
            lu_app, lu_profile, tests_per_point=TESTS, param_policy="all", seed=SEED,
            metrics=metrics,
        ).run(spread)
        assert stream_signature(result) == stream_signature(reference)
        forks, replays, decided, fallbacks = counts(metrics)
        total = len(spread) * TESTS
        assert forks + replays + decided + fallbacks == total and fallbacks == 0
        # Policy "all": handle, count and root strikes the entry checks
        # reject are decided in the park, whatever the pinning.
        assert decided > 0
        if pinning == "fork":
            assert forks + decided == total
        elif pinning == "replay":
            assert replays + decided == total
        else:
            assert forks >= 3  # the first tests of a campaign are the calibration
        counters = metrics.to_dict()["counters"]
        assert counters["snapshot.misses"] == 1 and "snapshot.hits" not in counters
        # One overhead sample per reaped child, one prefix sample per park.
        assert metrics.timer("snapshot.fork_overhead_s").count == forks
        assert metrics.timer("snapshot.prefix_s").count == len(spread)


class TestReplaySideKeepsTheStreamContract:
    stopper = SequentialStopper(ci_width=0.9, min_tests=5)

    def test_stopper_sees_each_result_before_the_next_draw(
        self, monkeypatch, reference, lu_app, lu_profile, spread
    ):
        """A stopper-driven unit served by replays alone cuts the stream
        at the index the scratch stream is cut at, and no test at or past
        that index is ever drawn."""
        pin(monkeypatch, then=False)
        stopper, drawn = self.stopper, []

        def draw_task(*args, **kwargs):
            drawn.append(args[3])  # the test index
            return real_draw(*args, **kwargs)

        real_draw = supervisor.draw_task
        monkeypatch.setattr(supervisor, "draw_task", draw_task)
        scratch = reference.points[spread[2]].tests
        stop = next(n for n in range(1, TESTS + 1) if stopper.should_stop(scratch[:n]))
        assert stop < TESTS
        state = WorkerState(lu_app, lu_profile, "all", SEED, None, True, stopper=stopper)
        _, tests, registry = state.execute(WorkUnit(2, 0, TESTS), spread[2])
        assert [(t.spec, t.outcome, t.detail) for t in tests] == [
            (t.spec, t.outcome, t.detail) for t in scratch[:stop]
        ]
        assert drawn == list(range(stop))
        forks, replays, decided, fallbacks = counts(registry)
        assert (forks, replays + decided, fallbacks) == (0, stop, 0)

    def test_what_deliver_raises_during_a_replay_propagates_as_itself(
        self, monkeypatch, runner, spread
    ):
        pin(monkeypatch, then=False)

        class Boom(RuntimeError):
            pass

        delivered = []

        def deliver(result):
            delivered.append(result)
            if len(delivered) == 2:
                raise Boom("recording result 1 failed")

        m = MetricsRegistry()
        with pytest.raises(Boom):
            SnapshotEngine(runner, metrics=m).serve_point(
                spread[1], _tasks(spread[1], n=4), on_result=deliver
            )
        assert _sig(delivered) == _sig(_scratch(runner, spread[1], n=4))[:2]
        assert counts(m) == (0, 2, 0, 0)

    def test_dead_child_then_chosen_replays_keep_slot_order(self, monkeypatch, runner, spread):
        """Fork, fork (the child dies: fallback replay in its slot), then
        replays by choice: five slots, scratch order."""
        pin(monkeypatch, True, True, then=False)
        reap, reaped = SnapshotEngine._reap, []

        def lossy_reap(pid, rfd):
            reaped.append(pid)
            result = reap(pid, rfd)
            return None if len(reaped) == 2 else result

        monkeypatch.setattr(SnapshotEngine, "_reap", staticmethod(lossy_reap))
        m = MetricsRegistry()
        results = SnapshotEngine(runner, metrics=m).serve_point(spread[3], _tasks(spread[3], n=5))
        assert _sig(results) == _sig(_scratch(runner, spread[3], n=5))
        assert counts(m) == (2, 3, 0, 1)
        assert m.timer("snapshot.fork_overhead_s").count == 1  # the child that reported
