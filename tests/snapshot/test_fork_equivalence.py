"""Forked test streams must be bit-identical to from-scratch replays.

The contract under test is the engine's whole reason to exist: a test
served by forking a parked fault-free prefix is indistinguishable —
spec, outcome, injection record, detail string — from the same test
replayed from t=0.  Checked through every integration layer: the
fork-equivalence oracle itself, serial campaigns, ``--jobs 4``, and a
killed-then-resumed DB-backed campaign, plus the registry's seeded
``snapshot`` mutants that prove the oracle can fail.
"""

import pytest

from repro.injection import Campaign, enumerate_points
from repro.snapshot import snapshot_supported
from repro.store import CampaignDB
from repro.verify import fork_equivalence
from repro.verify.snapshot_check import FORK_PASSES, PASSES

from tests.conftest import KillSink
from tests.store.test_equivalence import stream_signature
from tests.verify.test_mutant_selftest import caught_then_cured, layer

pytestmark = pytest.mark.skipif(
    not snapshot_supported(), reason="snapshot-and-fork needs os.fork"
)

TESTS_PER_POINT = 6
SEED = 17


@pytest.fixture(scope="module")
def points(lu_profile):
    return enumerate_points(lu_profile)[:5]


def run_campaign(lu_app, lu_profile, points, **kwargs):
    return Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED, **kwargs,
    ).run(points)


@pytest.fixture(scope="module")
def scratch_reference(lu_app, lu_profile, points):
    """The snapshot-free serial stream every other run must equal."""
    return run_campaign(lu_app, lu_profile, points, snapshot=False)


def test_oracle_reports_identical_streams(lu_app, lu_profile):
    report = fork_equivalence(lu_app, profile=lu_profile, seed=3, tests_per_point=3)
    assert report.identical, report.describe()
    assert report.mismatches == []
    # Cold park, cache-hit fast-forward, a lazily pulled stream, the
    # one-run walk over all points (in execution order and reversed),
    # the stream that alternates fork and in-park replay, and lists
    # served three children at a time are each compared with scratch;
    # stopper-driven work units with scratch cut where the stopper cuts;
    # lists drawn under policy "all" (decided in the park where the
    # entry checks reject a strike) with scratch under that policy.
    fingerprints = dict(report.forked_fingerprints)
    assert fingerprints.pop("stopped") == report.stopped_fingerprint
    assert fingerprints.pop("decided") == report.decided_fingerprint
    assert set(fingerprints.values()) == {report.scratch_fingerprint}
    assert tuple(report.forked_fingerprints) == PASSES == FORK_PASSES + ("decided",)
    assert FORK_PASSES == (
        "cold", "fast-forward", "lazy", "walk", "mixed", "pipelined", "stopped",
    )
    # The stopped pass cuts a point before its last test, so a horizon
    # that reaches past the cut has a test to deliver there.
    assert report.n_cut >= 1
    assert report.stopped_fingerprint != report.scratch_fingerprint


def test_serial_snapshot_campaign_bit_identical(
    scratch_reference, lu_app, lu_profile, points
):
    forked = run_campaign(lu_app, lu_profile, points, snapshot=True)
    assert stream_signature(forked) == stream_signature(scratch_reference)


def test_jobs4_snapshot_campaign_bit_identical(
    scratch_reference, lu_app, lu_profile, points
):
    forked = run_campaign(lu_app, lu_profile, points, snapshot=True, jobs=4)
    assert stream_signature(forked) == stream_signature(scratch_reference)


def test_killed_then_resumed_snapshot_campaign_bit_identical(
    scratch_reference, lu_app, lu_profile, points, tmp_path
):
    """Kill a snapshot-serving DB campaign halfway, resume it: the merged
    stream still equals the snapshot-free reference."""
    db = tmp_path / "killed.sqlite"

    class Killed(RuntimeError):
        pass

    killer = KillSink(Killed("halfway"), lambda done, total: done >= total // 2)

    with pytest.raises(Killed):
        run_campaign(
            lu_app, lu_profile, points, snapshot=True, db_path=db, progress_sinks=[killer],
        )
    with CampaignDB(db) as cdb:
        assert cdb.campaign()["complete"] == 0

    resumed = run_campaign(
        lu_app, lu_profile, points, snapshot=True, db_path=db, resume=True
    )
    assert stream_signature(resumed) == stream_signature(scratch_reference)


@pytest.mark.parametrize("mutant", layer("snapshot"))
def test_seeded_engine_mutants_are_detected(lu_app, lu_profile, mutant):
    """Each flips exactly the passes it names (only those are served): a
    defect in the step between units needs a stream of them (``walk``),
    one in the in-park replay a replayed test (``mixed``,
    ``pipelined``), one in the reaping order two children in flight
    (``pipelined``), one in a stopper's horizon a stopper (``stopped``),
    one in the park's trial a test decided there (``decided``); a stale
    prefix is seen by every pass that forks, the rest by every pass."""
    caught_then_cured(mutant, app=lu_app, profile=lu_profile, seed=3, tests=3)


def test_engine_mutant_pass_sets():
    """What each engine mutant must flip, pinned: narrowing a
    ``detected_by`` would quietly weaken the self-test."""
    from repro.verify import MUTANTS

    assert {name: MUTANTS[name].detected_by for name in layer("snapshot")} == {
        "snapshot_rng_desync": PASSES,
        "snapshot_stale_prefix": FORK_PASSES,
        "snapshot_wrong_invocation": PASSES,
        "snapshot_walk_stale_target": ("walk",),
        "snapshot_replay_wrong_slot": ("mixed", "pipelined"),
        "snapshot_pipeline_reorder": ("pipelined",),
        "snapshot_horizon_overreach": ("stopped",),
        "snapshot_trial_strikes_parked_call": ("decided",),
    }


def test_mutant_spread_includes_late_invocations(lu_profile):
    """`snapshot_wrong_invocation` shifts the park only when the target
    invocation is > 0 — the oracle's point spread must include one."""
    from repro.verify.snapshot_check import fork_equivalence as fe  # noqa: F401
    space = enumerate_points(lu_profile)
    n = min(4, len(space))
    idx = sorted({round(i * (len(space) - 1) / max(1, n - 1)) for i in range(n)})
    assert any(space[i].invocation > 0 for i in idx)
