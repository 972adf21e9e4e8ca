"""Serial <-> parallel equivalence, stated through the replay
fingerprint: the full TestResult stream of a campaign is a pure function
of (app, points, config), whatever the worker count — and a campaign
interrupted mid-flight resumes to the same stream.
"""

import pytest

from repro.injection import Campaign, enumerate_points
from repro.verify.replay import fingerprint
from tests.conftest import KillSink

TESTS_PER_POINT = 6
SEED = 17


def stream_signature(result):
    """Canonical content hash of the full TestResult stream."""
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


@pytest.fixture(scope="module")
def points(lu_profile):
    return enumerate_points(lu_profile)[:5]


@pytest.fixture(scope="module")
def serial_signature(lu_app, lu_profile, points):
    result = Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED,
    ).run(points)
    return stream_signature(result)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_jobs_sweep_bit_identical(lu_app, lu_profile, points, serial_signature, jobs):
    result = Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED, jobs=jobs,
    ).run(points)
    assert stream_signature(result) == serial_signature


def test_resume_mid_campaign_bit_identical(
    tmp_path, lu_app, lu_profile, points, serial_signature
):
    """Crash the campaign halfway via a progress sink, then resume
    from the database: the merged stream must equal the uninterrupted
    run's, byte for byte."""
    db = tmp_path / "campaign.db"

    class Killed(RuntimeError):
        pass

    killer = KillSink(Killed("halfway"), lambda done, total: done >= total // 2)
    with pytest.raises(Killed):
        Campaign(
            lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
            param_policy="all", seed=SEED,
            db_path=db, progress_sinks=[killer],
        ).run(points)

    resumed = Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED,
        db_path=db, resume=True,
    ).run(points)
    assert stream_signature(resumed) == serial_signature
