"""One fault-free run per unit stream: the parked job walks forward.

``SnapshotEngine.serve`` takes a lazily pulled stream of units and runs
one fault-free job for as long as each next point is still ahead of it;
only a point already passed starts a fresh run.  Every case below pins
both halves of that contract: the results equal scratch ``run_one``
streams, and ``snapshot.misses`` counts exactly the runs started from
t=0.  The park-or-replay decision is pinned to "fork" (``always_fork``),
so ``snapshot.forks`` counts exactly the tests a park served; what the
unpinned decision does is ``test_park_or_replay.py``'s subject.
"""

import dataclasses

import pytest

from repro.injection import enumerate_points
from repro.injection.runner import InjectionRunner
from repro.obs.metrics import MetricsRegistry
from repro.snapshot import SnapshotCache, SnapshotEngine, snapshot_supported
from repro.snapshot.engine import task_slots

from tests.snapshot.test_cache_and_fallback import _scratch, _sig, _tasks

pytestmark = [
    pytest.mark.skipif(not snapshot_supported(), reason="snapshot-and-fork needs os.fork"),
    pytest.mark.usefixtures("always_fork"),
]


@pytest.fixture(scope="module")
def runner(lu_app, lu_profile):
    return InjectionRunner(lu_app, lu_profile)


@pytest.fixture(scope="module")
def points(lu_profile):
    """Four points spread over the job, in execution order."""
    space = sorted(enumerate_points(lu_profile), key=lu_profile.comm.execution_key())
    return space[:: len(space) // 4][:4]


@pytest.fixture(scope="module")
def scratch(runner, points):
    return {point: _sig(_scratch(runner, point)) for point in points}


def _serve(runner, sequence, *, cache=None, done=None, tasks=_tasks):
    """Serve ``sequence`` as one unit stream; returns the per-unit result
    lists (stream order), the counters and the order units finished in."""
    m = MetricsRegistry()
    served, finished = [], []

    def units():
        for k, point in enumerate(sequence):
            served.append([])
            # Pulled only once every earlier unit is done.
            assert finished == list(range(k))

            def finish(k=k):
                finished.append(k)
                if done is not None:
                    done(k)

            yield point, task_slots(tasks(point), served[k]), served[k].append, finish, None

    SnapshotEngine(runner, cache=cache, metrics=m).serve(units())
    return served, _counters(m), finished


def _counters(m: MetricsRegistry) -> dict:
    """``m``'s counters but the overlap count, which depends on how many
    cores the engine's default width gives it."""
    counters = m.to_dict()["counters"]
    counters.pop("snapshot.overlapped_forks", None)
    return counters


def test_execution_order_is_one_run(runner, points, scratch):
    served, counters, finished = _serve(runner, points)
    assert [_sig(tests) for tests in served] == [scratch[p] for p in points]
    assert finished == [0, 1, 2, 3]
    assert counters == {"snapshot.misses": 1, "snapshot.forks": 12}


def test_reversed_order_is_one_run_per_unit(runner, points, scratch):
    served, counters, _ = _serve(runner, points[::-1])
    assert [_sig(tests) for tests in served] == [scratch[p] for p in points[::-1]]
    assert counters == {"snapshot.misses": 4, "snapshot.forks": 12}


def test_any_subsequence_of_the_order_still_walks(runner, points, scratch):
    """What a pool worker sees: some units of the ordered list."""
    served, counters, _ = _serve(runner, [points[0], points[3]])
    assert [_sig(tests) for tests in served] == [scratch[points[0]], scratch[points[3]]]
    assert counters == {"snapshot.misses": 1, "snapshot.forks": 6}


def test_same_point_twice_restarts(runner, points, scratch):
    """A retried unit names a point the run is parked *at*, which is no
    longer ahead: it gets a run of its own — restored from the snapshot
    taken at the first park when the cache kept one, else from t=0."""
    sequence = [points[1], points[1], points[2]]
    served, counters, _ = _serve(runner, sequence)
    assert [_sig(tests) for tests in served] == [scratch[p] for p in sequence]
    assert counters["snapshot.misses"] == 1 and counters["snapshot.hits"] == 1
    assert counters["snapshot.forks"] == 9
    served, counters, _ = _serve(runner, sequence, cache=SnapshotCache(max_bytes=0))
    assert [_sig(tests) for tests in served] == [scratch[p] for p in sequence]
    assert counters == {"snapshot.misses": 2, "snapshot.forks": 9}


def test_unreachable_unit_replays_alone_and_the_walk_resumes(runner, points, scratch):
    """The ghost's park never fires, so the run it was armed on ends:
    that unit replays from scratch, the next one starts the second run."""
    ghost = dataclasses.replace(points[1], invocation=points[1].invocation + 10_000)
    served, counters, finished = _serve(runner, [points[0], ghost, points[2], points[3]])
    assert _sig(served[1]) == _sig(_scratch(runner, ghost))
    assert [_sig(served[k]) for k in (0, 2, 3)] == [scratch[points[k]] for k in (0, 2, 3)]
    assert finished == [0, 1, 2, 3]
    assert counters == {
        "snapshot.misses": 2, "snapshot.forks": 9, "snapshot.fallback_tests": 3,
    }


def test_unsafe_and_empty_units_do_not_stop_the_walk(runner, points, scratch):
    """A unit no prefix can serve (``msg_drop``) replays where it stands
    and an empty one costs nothing; the parked run carries on past both."""
    from repro.injection.models import draw_task

    def tasks(point):
        if point is points[1]:
            return [draw_task(point, 5, 0, t, policy="buffer", model="msg_drop") for t in range(2)]
        return iter(()) if point is points[2] else _tasks(point)

    served, counters, finished = _serve(runner, points, tasks=tasks)
    assert [_sig(served[k]) for k in (0, 3)] == [scratch[points[k]] for k in (0, 3)]
    assert _sig(served[1]) == _sig([runner.run_one(*task) for task in tasks(points[1])])
    assert served[2] == [] and finished == [0, 1, 2, 3]
    assert counters == {
        "snapshot.misses": 1, "snapshot.forks": 6, "snapshot.fallback_tests": 2,
    }


def test_child_killed_mid_walk_is_replayed_in_its_slot(runner, points, scratch, monkeypatch):
    """The 5th fork (unit 1, test 1) dies without a result: its replay
    lands in its own slot and the same run walks on to units 2 and 3."""
    reap, reaped = SnapshotEngine._reap, []

    def lossy_reap(pid, rfd):
        reaped.append(pid)
        result = reap(pid, rfd)
        return None if len(reaped) == 5 else result

    monkeypatch.setattr(SnapshotEngine, "_reap", staticmethod(lossy_reap))
    served, counters, _ = _serve(runner, points)
    assert [_sig(tests) for tests in served] == [scratch[p] for p in points]
    assert counters == {
        "snapshot.misses": 1, "snapshot.forks": 12, "snapshot.fallback_tests": 1,
    }


def test_what_a_caller_raises_while_parked_propagates(runner, points, scratch):
    """``done`` raising mid-walk is the caller's failure, not the
    prefix's: it surfaces as raised, nothing is replayed, and the units
    finished before it keep their results."""

    class Boom(RuntimeError):
        pass

    def done(k):
        if k == 1:
            raise Boom("reporting unit 1 failed")

    served = []
    with pytest.raises(Boom):
        m = MetricsRegistry()
        SnapshotEngine(runner, metrics=m).serve(
            (point, task_slots(_tasks(point), served), served.append, lambda k=k: done(k), None)
            for k, point in enumerate(points)
        )
    assert _sig(served) == scratch[points[0]] + scratch[points[1]]
    assert _counters(m) == {"snapshot.misses": 1, "snapshot.forks": 6}
