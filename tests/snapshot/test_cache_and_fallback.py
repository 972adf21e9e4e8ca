"""Snapshot cache bounds, the engine's full-replay fallbacks, and its
lazily pulled task stream.

The LRU cache is byte-budgeted (arena copies dominate), and every path
the fork engine cannot serve must degrade to a plain ``run_one`` replay
with the correct telemetry — never a wrong result.  Tasks are pulled
while the job is parked, one per delivered result, so a list and a
generator that decides from the results so far are served alike.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.injection import enumerate_points
from repro.injection.models import draw_task
from repro.injection.runner import InjectionRunner
from repro.injection.space import FaultSpec, InjectionPoint
from repro.injection.targets import pick_target
from repro.obs.metrics import MetricsRegistry
from repro.snapshot import SnapshotCache, SnapshotEngine, snapshot_supported
from repro.snapshot.snapshot import SimSnapshot

pytestmark = pytest.mark.skipif(
    not snapshot_supported(), reason="snapshot-and-fork needs os.fork"
)


def _fake_snapshot(point, size):
    return SimSnapshot(
        point=point,
        nranks=1,
        arenas=(bytes(size),),
        brks=(0,),
        seg_counts=(0,),
        mailbox={},
        waiting={},
        ready_ranks=(0,),
        steps=0,
        fibers=(),
        inbound=((),),
        target_pending=None,
    )


def _point(i):
    return InjectionPoint(0, "Allreduce", f"site.py:{i}", 0)


class TestSnapshotCacheLRU:
    def test_eviction_under_byte_budget(self):
        cache = SnapshotCache(max_bytes=250)
        for i in range(3):
            cache.put(_point(i), _fake_snapshot(_point(i), 100))
        # Third insert exceeds 250 bytes: the least recent entry goes.
        assert len(cache) == 2
        assert cache.evictions == 1
        assert _point(0) not in cache
        assert _point(1) in cache and _point(2) in cache
        assert cache.nbytes == 200

    def test_get_refreshes_recency(self):
        cache = SnapshotCache(max_bytes=250)
        cache.put(_point(0), _fake_snapshot(_point(0), 100))
        cache.put(_point(1), _fake_snapshot(_point(1), 100))
        assert cache.get(_point(0)) is not None  # 0 becomes most recent
        cache.put(_point(2), _fake_snapshot(_point(2), 100))
        assert _point(1) not in cache
        assert _point(0) in cache

    def test_oversized_snapshot_not_retained(self):
        cache = SnapshotCache(max_bytes=50)
        cache.put(_point(0), _fake_snapshot(_point(0), 100))
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_pop_releases_bytes(self):
        cache = SnapshotCache(max_bytes=1000)
        cache.put(_point(0), _fake_snapshot(_point(0), 100))
        cache.pop(_point(0))
        assert cache.nbytes == 0
        assert _point(0) not in cache


@pytest.fixture(scope="module")
def runner(lu_app, lu_profile):
    return InjectionRunner(lu_app, lu_profile)


@pytest.fixture(scope="module")
def late_point(lu_profile):
    points = enumerate_points(lu_profile)
    return max(points, key=lambda p: p.invocation)


def _tasks(point, n=3, seed=5):
    tasks = []
    for t in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        tasks.append((FaultSpec(point, pick_target(rng, point.collective, "buffer"), None), rng))
    return tasks


def _scratch(runner, point, n=3, seed=5):
    return [runner.run_one(spec, rng) for spec, rng in _tasks(point, n, seed)]


def _sig(tests):
    return [
        (repr(t.spec.point), t.spec.param, t.spec.bit, t.outcome.name, t.detail)
        for t in tests
    ]


def _stream(tasks, delivered, pulls, stop_at):
    """A stopper-shaped generator: ends once ``stop_at`` results have
    been delivered, and notes how many had been at each pull."""
    for task in tasks:
        if len(delivered) >= stop_at:
            return
        pulls.append(len(delivered))
        yield task


def _serve_stream(engine, point, tasks, stop_at):
    delivered, pulls = [], []
    results = engine.serve_point(
        point, _stream(tasks, delivered, pulls, stop_at), on_result=delivered.append
    )
    assert _sig(results) == _sig(delivered)
    # Exactly-once, in-order: task k+1 is drawn after result k arrived.
    assert pulls == list(range(len(results)))
    return results


@pytest.mark.usefixtures("always_fork")  # exact snapshot.forks counts below
class TestEngineFallbacks:
    def test_ff_divergence_falls_back_to_fresh_prefix(self, runner, late_point):
        """Tamper with the cached snapshot: the byte-exact re-park check
        must catch it, drop the entry, and re-serve from t=0 — with the
        stream still identical to scratch."""
        m = MetricsRegistry()
        engine = SnapshotEngine(runner, metrics=m)
        first = engine.serve_point(late_point, _tasks(late_point))
        snap = engine.cache.get(late_point)
        assert snap is not None
        bad = bytearray(snap.arenas[0])
        bad[len(bad) // 2] ^= 0xFF
        engine.cache.put(
            late_point,
            dataclasses.replace(snap, arenas=(bytes(bad),) + snap.arenas[1:]),
        )
        second = engine.serve_point(late_point, _tasks(late_point))
        assert _sig(second) == _sig(first) == _sig(_scratch(runner, late_point))
        assert m.counter("snapshot.ff_divergence").value == 1
        # The poisoned snapshot was dropped and a clean one re-captured.
        assert engine.cache.get(late_point) is not None

    def test_nondeterministic_app_served_by_full_replay(self, runner, late_point):
        m = MetricsRegistry()
        engine = SnapshotEngine(runner, metrics=m)
        deterministic = runner.app.deterministic
        try:
            runner.app.deterministic = False
            results = engine.serve_point(late_point, _tasks(late_point))
        finally:
            runner.app.deterministic = deterministic
        assert _sig(results) == _sig(_scratch(runner, late_point))
        assert m.counter("snapshot.fallback_tests").value == 3
        assert m.counter("snapshot.forks").value == 0

    def test_unreachable_site_served_by_full_replay(self, runner, lu_profile):
        """A park that never fires (invocation beyond the app's horizon)
        must degrade to scratch replays, not hang or die."""
        point = enumerate_points(lu_profile)[0]
        ghost = dataclasses.replace(point, invocation=point.invocation + 10_000)
        m = MetricsRegistry()
        engine = SnapshotEngine(runner, metrics=m)
        results = engine.serve_point(ghost, _tasks(ghost))
        assert _sig(results) == _sig(_scratch(runner, ghost))
        assert m.counter("snapshot.fallback_tests").value == 3

    def test_metrics_flow_through_serve(self, runner, late_point):
        m = MetricsRegistry()
        engine = SnapshotEngine(runner, metrics=m)
        engine.serve_point(late_point, _tasks(late_point))
        engine.serve_point(late_point, _tasks(late_point))
        counters = m.to_dict()["counters"]
        assert counters["snapshot.misses"] == 1
        assert counters["snapshot.hits"] == 1
        assert counters["snapshot.forks"] == 6
        assert m.gauge("snapshot.bytes").value == engine.cache.nbytes > 0
        assert m.timer("snapshot.fastforward_s").count == 1
        assert m.timer("snapshot.fork_s").count == 6


@pytest.mark.usefixtures("always_fork")  # exact snapshot.forks counts below
class TestLazyStream:
    def test_list_and_generator_equal_scratch_from_one_park(self, runner, late_point):
        scratch = _sig(_scratch(runner, late_point, n=5))
        for feed in (list, iter):
            m = MetricsRegistry()
            engine = SnapshotEngine(runner, metrics=m)
            results = engine.serve_point(late_point, feed(_tasks(late_point, n=5)))
            assert _sig(results) == scratch
            counters = m.to_dict()["counters"]
            assert counters["snapshot.misses"] == 1 and counters["snapshot.forks"] == 5
            assert "snapshot.hits" not in counters
            assert m.timer("snapshot.fastforward_s").count == 0

    def test_next_task_is_pulled_after_previous_result(self, runner, late_point):
        """A stream that ends on what it was handed is cut there, and
        nothing past the cut is ever drawn."""
        m = MetricsRegistry()
        engine = SnapshotEngine(runner, metrics=m)
        results = _serve_stream(engine, late_point, _tasks(late_point, n=5), stop_at=3)
        assert _sig(results) == _sig(_scratch(runner, late_point, n=5))[:3]
        assert m.counter("snapshot.forks").value == 3
        assert m.counter("snapshot.misses").value == 1

    @pytest.mark.parametrize("why", ["nondeterministic", "unreachable", "wire"])
    def test_fallbacks_replay_and_count_only_what_was_pulled(
        self, runner, late_point, monkeypatch, why
    ):
        """Every whole-stream fallback, fed a generator that stops after
        2 of 3 results: two scratch replays, two counted, none forked."""
        point, tasks = late_point, _tasks
        if why == "nondeterministic":
            monkeypatch.setattr(runner.app, "deterministic", False)
        elif why == "unreachable":
            point = dataclasses.replace(point, invocation=point.invocation + 10_000)
        else:  # msg_drop is not snapshot_safe: no prefix is shared

            def tasks(p, n=3):
                return [draw_task(p, 5, 0, t, policy="buffer", model="msg_drop") for t in range(n)]

        m = MetricsRegistry()
        engine = SnapshotEngine(runner, metrics=m)
        results = _serve_stream(engine, point, tasks(point), stop_at=2)
        scratch = [runner.run_one(spec, rng) for spec, rng in tasks(point)]
        assert len(results) == 2
        assert [(t.spec, t.outcome, t.detail) for t in results] == [
            (t.spec, t.outcome, t.detail) for t in scratch[:2]
        ]
        assert m.counter("snapshot.fallback_tests").value == 2
        assert m.counter("snapshot.forks").value == 0

    def test_empty_stream_runs_no_prefix(self, runner, late_point):
        m = MetricsRegistry()
        engine = SnapshotEngine(runner, metrics=m)
        assert engine.serve_point(late_point, iter(())) == []
        assert m.to_dict()["counters"] == {}
        assert late_point not in engine.cache

    @pytest.mark.parametrize("k", [1, 3])
    def test_fork_failure_replays_the_rest_and_leaks_no_fd(
        self, runner, late_point, monkeypatch, k
    ):
        """``os.fork`` raising on the k-th call (process limit): the
        k-1 served results stand, test k and the rest replay from
        scratch, and both ends of the orphaned pipe are closed."""
        n, real_fork, calls = 5, os.fork, []

        def fork():
            calls.append(None)
            if len(calls) == k:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        m = MetricsRegistry()
        engine = SnapshotEngine(runner, metrics=m)
        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", fork)
        results = _serve_stream(engine, late_point, _tasks(late_point, n=n), stop_at=n)
        monkeypatch.undo()
        assert len(os.listdir("/proc/self/fd")) == fds
        assert _sig(results) == _sig(_scratch(runner, late_point, n=n))
        assert len(calls) == k  # no fork is attempted after the failure
        assert m.counter("snapshot.forks").value == k - 1
        assert m.counter("snapshot.fallback_tests").value == n - k + 1
