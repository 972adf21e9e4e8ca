"""Shared fixtures for the FastFIT reproduction test suite.

Campaign-level artefacts are expensive (each injection test is a full
simulated job), so they are session-scoped and shared across test
modules.
"""

from __future__ import annotations

import pytest

from repro.apps import make_app
from repro.injection import Campaign, CampaignResult, InjectionRunner, PointResult, enumerate_points
from repro.injection.models import draw_task
from repro.profiling import profile_application


def run_rank0(gen_fn, nranks=1, **kwargs):
    """Run a generator app function and return rank 0's result."""
    from repro.simmpi import run_app

    return run_app(gen_fn, nranks, **kwargs).results[0]


class ProgressLog:
    """A progress sink recording ``(done_tests, total_tests)`` per snapshot."""

    def __init__(self):
        self.seen: list[tuple[int, int]] = []

    def emit(self, snap):
        self.seen.append((snap.done_tests, snap.total_tests))

    def close(self):
        pass


class KillSink:
    """A progress sink that kills a campaign: it raises ``exc`` at the
    first snapshot whose ``(done_tests, total_tests)`` satisfies
    ``when``, then stays silent, so the snapshot the engine emits on its
    way out does not raise again."""

    def __init__(self, exc: BaseException, when=lambda done, total: True):
        self.exc, self.when, self.fired = exc, when, False

    def emit(self, snap):
        if not self.fired and self.when(snap.done_tests, snap.total_tests):
            self.fired = True
            raise self.exc

    def close(self):
        pass


@pytest.fixture(scope="session")
def scratch_reference():
    """The independent reference every equivalence suite is anchored to:
    the paper's loop written out directly — ``draw_task`` +
    ``InjectionRunner.run_one`` per ``(point, test)`` — with no work
    units, no engine, no snapshot and no store."""

    def reference(app, profile, points, tests_per_point, seed, policy):
        runner = InjectionRunner(app, profile)
        result = CampaignResult(app.name, tests_per_point, policy)
        for i, point in enumerate(points):
            result.points[point] = PointResult(point, [
                runner.run_one(*draw_task(point, seed, i, t, policy=policy))
                for t in range(tests_per_point)
            ])
        return result

    return reference


@pytest.fixture
def always_fork(monkeypatch):
    """Pin the snapshot engine's park-or-replay decision to "fork", for
    tests of the fork path that count ``snapshot.forks`` on points whose
    prefix is cheaper than a fork.  Pool workers are forked from this
    process, so they inherit the patch."""
    from repro.snapshot import SnapshotEngine

    monkeypatch.setattr(SnapshotEngine, "fork_pays", lambda self, prefix_s: True)


@pytest.fixture(scope="session")
def lu_app():
    return make_app("lu", "T")


@pytest.fixture(scope="session")
def lu_profile(lu_app):
    return profile_application(lu_app)


@pytest.fixture(scope="session")
def lammps_app():
    return make_app("lammps", "T")


@pytest.fixture(scope="session")
def lammps_profile(lammps_app):
    return profile_application(lammps_app)


@pytest.fixture(scope="session")
def lu_small_campaign(lu_app, lu_profile):
    """A small but real campaign over the first few LU points."""
    points = enumerate_points(lu_profile)[:8]
    campaign = Campaign(lu_app, lu_profile, tests_per_point=12, param_policy="all", seed=7)
    return campaign.run(points)


@pytest.fixture(scope="session")
def lammps_buffer_campaign(lammps_app, lammps_profile):
    """Buffer-policy campaign over a slice of mini-LAMMPS points."""
    points = enumerate_points(lammps_profile)
    # A spread of collectives: take every 5th point, capped.
    selected = points[::5][:10]
    campaign = Campaign(
        lammps_app, lammps_profile, tests_per_point=10, param_policy="buffer", seed=3
    )
    return campaign.run(selected)
