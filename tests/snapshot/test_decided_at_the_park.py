"""Decided at the park: a strike the collective's entry checks reject is
classified in the parent, with no fork and no replay.

The park strikes a private copy of the parked call's arguments with a
copy of the test's RNG and runs the collective's own entry checks — the
one function the live call runs too — on it.  A simulated-MPI error
there ends the job in a from-scratch run, so the test's result is
``classify_error`` of that error.  These tests pin that the result is
the one ``run_one`` gives, field for field, on every registered app;
that the trial touches neither the parked call nor the test's RNG; that
the live calls run the same checks; and that every test is counted once.
"""

import inspect

import pytest

from repro import FastFIT
from repro.apps.registry import APPLICATIONS, make_app
from repro.injection import enumerate_points
from repro.injection.models import draw_task
from repro.injection.runner import InjectionRunner
from repro.obs.metrics import MetricsRegistry
from repro.profiling import profile_application
from repro.simmpi.calls import COLLECTIVE_PARAMS
from repro.simmpi.context import Context
from repro.simmpi.validation import ENTRY_CHECKS
from repro.snapshot import SnapshotEngine, snapshot_supported

from tests.snapshot.test_park_or_replay import counts

pytestmark = pytest.mark.skipif(
    not snapshot_supported(), reason="snapshot-and-fork needs os.fork"
)

SEED = 2015
TESTS = 3


def spread(profile, n=6):
    space = enumerate_points(profile)
    return space[:: max(1, len(space) // n)][:n]


def test_every_collective_runs_its_one_entry_check():
    """One entry-check function per collective, and the live call runs
    it: the park's decision cannot drift from what the call checks."""
    assert set(ENTRY_CHECKS) == set(COLLECTIVE_PARAMS)
    for name, check in ENTRY_CHECKS.items():
        method = getattr(Context, name)
        source = inspect.getsource(method)
        if name in ("Scan", "Exscan"):
            source += inspect.getsource(Context._prefix_reduction)
        assert f"{check.__name__}(self.runtime,self.rank,call.args)" in "".join(source.split()), name


@pytest.mark.parametrize("app_name", sorted(APPLICATIONS))
def test_park_results_equal_run_one_on_every_app(app_name):
    """Policy ``all`` at class T: every result the engine serves — decided
    in the park, forked or replayed — equals ``run_one``'s as a
    dataclass, record and detail included."""
    app = make_app(app_name, "T")
    profile = profile_application(app)
    runner = InjectionRunner(app, profile)
    metrics = MetricsRegistry()
    engine = SnapshotEngine(runner, metrics=metrics)
    points = spread(profile)
    for i, point in enumerate(points):
        served = engine.serve_point(
            point, [draw_task(point, SEED, i, t, policy="all") for t in range(TESTS)]
        )
        scratch = [runner.run_one(*draw_task(point, SEED, i, t, policy="all")) for t in range(TESTS)]
        assert served == scratch, point
    forks, replays, decided, fallbacks = counts(metrics)
    assert forks + replays + decided == len(points) * TESTS and fallbacks == 0
    assert decided > 0


def test_trial_leaves_the_parked_call_and_the_rng_untouched(monkeypatch, lu_app, lu_profile):
    """Every trial sees the parked call's arguments and the test's RNG
    as they were, and leaves both so: the same values (the very
    objects) and the same generator state."""
    decide, seen = SnapshotEngine.decide, []

    def spy(self, ctx, call, spec, rng):
        args, state = dict(call.args), rng.bit_generator.state
        result = decide(self, ctx, call, spec, rng)
        assert call.args.keys() == args.keys()
        assert all(call.args[k] is v for k, v in args.items())
        assert rng.bit_generator.state == state
        seen.append(result is not None)
        return result

    monkeypatch.setattr(SnapshotEngine, "decide", spy)
    runner = InjectionRunner(lu_app, lu_profile)
    for i, point in enumerate(spread(lu_profile)):
        tasks = [draw_task(point, SEED, i, t, policy="all") for t in range(TESTS)]
        served = SnapshotEngine(runner).serve_point(point, tasks)
        # A test the trial did not decide forks or replays from the RNG
        # state it was handed.
        assert served == [runner.run_one(*draw_task(point, SEED, i, t, policy="all"))
                          for t in range(TESTS)]
    assert any(seen) and not all(seen)


def test_default_lu_campaign_decides_most_tests_in_the_park():
    """``fastfit campaign --app lu --policy all`` at seed 2015 (21 points
    x 20 tests): most strikes hit a handle, count or root that the entry
    checks reject, and the count is the same on one executor or two."""
    decided = []
    for jobs in (1, 2):
        metrics = MetricsRegistry()
        ff = FastFIT(make_app("lu", "T"), seed=SEED, tests_per_point=20, param_policy="all",
                     metrics=metrics, jobs=jobs)
        ff.campaign(ff.prune().representative_points)
        counters = metrics.to_dict()["counters"]
        forks, replays, n_decided, fallbacks = counts(metrics)
        assert counters["campaign.tests"] == 420
        assert forks + replays + n_decided + fallbacks == 420 and fallbacks == 0
        decided.append(n_decided)
    assert decided[0] == decided[1] >= 300

