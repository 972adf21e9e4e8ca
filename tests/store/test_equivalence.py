"""DB-backed campaign equivalence, stated through replay fingerprints:
serial, parallel (``--jobs 4``), and killed-then-resumed campaigns must
leave byte-identical result sets in the database — and those rows must
agree with the in-memory TestResult stream."""

import pytest

from repro.apps import make_app
from repro.injection import Campaign, enumerate_points
from repro.obs.metrics import MetricsRegistry
from repro.profiling import profile_application
from repro.store import CampaignDB
from repro.verify.replay import fingerprint
from tests.exec.test_parallel import campaign_signature
from tests.injection.test_fault_models import PIN_SCENARIO

TESTS_PER_POINT = 6
SEED = 17


def stream_signature(result):
    """Canonical content hash of the full TestResult stream (the same
    construction tests/verify/test_serial_parallel_equiv.py pins)."""
    sig = []
    for point, pr in sorted(result.points.items()):
        sig.append(
            (
                repr(point),
                [
                    (
                        repr(t.spec.point),
                        t.spec.param,
                        t.spec.bit,
                        t.outcome.name,
                        None if t.record is None else (t.record.bit, t.record.skipped),
                        t.detail,
                    )
                    for t in pr.tests
                ],
                pr.error_rate,
            )
        )
    return fingerprint(sig)


def db_signature(db_path):
    """Canonical content hash of the stored result set: every per-test
    row in (point, test) order, independent of ids and sharding."""
    with CampaignDB(db_path) as db:
        row = db.campaign()
        assert row is not None, f"no campaign recorded in {db_path}"
        rows = [
            (
                r["point_index"], r["test_index"], r["rank"], r["collective"],
                r["site"], r["invocation"], r["param"], r["bit"],
                r["outcome"], r["injected"], r["detail"],
            )
            for r in db.results(row["id"])
        ]
    assert rows, f"empty result set in {db_path}"
    return fingerprint(rows)


@pytest.fixture(scope="module")
def points(lu_profile):
    return enumerate_points(lu_profile)[:5]


def run_campaign(lu_app, lu_profile, points, **kwargs):
    return Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED, **kwargs,
    ).run(points)


@pytest.fixture(scope="module")
def serial(tmp_path_factory, lu_app, lu_profile, points):
    """The uninterrupted single-worker DB-backed reference run."""
    db = tmp_path_factory.mktemp("serial") / "c.sqlite"
    result = run_campaign(lu_app, lu_profile, points, db_path=db)
    return result, db


def test_db_rows_match_in_memory_stream(serial, lu_app, lu_profile, points):
    """The stored rows are the stream: same outcomes per (point, test),
    and the plain no-store campaign fingerprints identically."""
    result, db = serial
    plain = run_campaign(lu_app, lu_profile, points)
    assert stream_signature(result) == stream_signature(plain)

    with CampaignDB(db) as cdb:
        row = cdb.campaign()
        assert row["complete"] == 1
        hist = cdb.outcome_histogram(row["id"])
    counted = {}
    for t in result.all_tests():
        counted[t.outcome.name] = counted.get(t.outcome.name, 0) + 1
    assert hist == counted


def test_parallel_jobs4_db_bit_identical(serial, lu_app, lu_profile, points, tmp_path):
    result, db = serial
    db4 = tmp_path / "jobs4.sqlite"
    result4 = run_campaign(lu_app, lu_profile, points, db_path=db4, jobs=4)
    assert stream_signature(result4) == stream_signature(result)
    assert db_signature(db4) == db_signature(db)


def test_killed_then_resumed_db_bit_identical(
    serial, lu_app, lu_profile, points, tmp_path
):
    """Crash the campaign halfway via the progress callback, resume from
    the database: both the merged stream and the stored result set must
    equal the uninterrupted run's, byte for byte."""
    result, db = serial
    dbk = tmp_path / "killed.sqlite"

    class Killed(RuntimeError):
        pass

    def killer(done, total):
        if done >= total // 2:
            raise Killed(f"{done}/{total}")

    with pytest.raises(Killed):
        run_campaign(lu_app, lu_profile, points, db_path=dbk, progress=killer)

    # the durable prefix is already queryable, campaign marked incomplete
    with CampaignDB(dbk) as cdb:
        row = cdb.campaign()
        assert row["complete"] == 0
        partial = len(list(cdb.results(row["id"])))
    assert 0 < partial < len(points) * TESTS_PER_POINT

    resumed = run_campaign(
        lu_app, lu_profile, points, db_path=dbk, resume=True
    )
    assert stream_signature(resumed) == stream_signature(result)
    assert db_signature(dbk) == db_signature(db)
    with CampaignDB(dbk) as cdb:
        assert cdb.campaign()["complete"] == 1


def test_resume_of_complete_campaign_runs_nothing(serial, lu_app, lu_profile, points):
    """Resuming a finished campaign replays from the database only —
    and still reproduces the identical stream."""
    result, db = serial
    replayed = run_campaign(lu_app, lu_profile, points, db_path=db, resume=True)
    assert stream_signature(replayed) == stream_signature(result)
    assert db_signature(db) == db_signature(db)


def test_scenario_campaign_killed_and_resumed_whole(tmp_path):
    """A timeline campaign (records anchored at the struck call, not at
    the anchor point): serial, ``jobs=2`` and killed-then-resumed give
    the same tests, whole."""
    app = make_app("is", "T")
    profile = profile_application(app)
    anchor = PIN_SCENARIO.anchor_point()

    def run(**kwargs):
        # Point-major slices (snapshot off): the one anchor point spans
        # four units, so the campaign can die between them.
        return Campaign(
            app, profile, tests_per_point=12, seed=SEED, scenario=PIN_SCENARIO,
            snapshot=False, **kwargs,
        ).run([anchor])

    serial = run()
    assert campaign_signature(run(jobs=2)) == campaign_signature(serial)

    class Killed(RuntimeError):
        pass

    def killer(done, total):
        if done >= total // 2:
            raise Killed(f"{done}/{total}")

    db = tmp_path / "killed.sqlite"
    with pytest.raises(Killed):
        run(db_path=db, progress=killer)
    metrics = MetricsRegistry()
    resumed = run(db_path=db, resume=True, metrics=metrics)
    assert campaign_signature(resumed) == campaign_signature(serial)
    assert metrics.counter("exec.units_resumed").value > 0
    assert metrics.counter("exec.units").value > 0
    struck = {t.record.collective for t in resumed.all_tests() if t.record is not None}
    assert struck - {anchor.collective}, "no record struck away from the anchor"
