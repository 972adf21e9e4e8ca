"""Campaign identity and resume through the campaign database: digests,
round trips, torn writes, and resumes under a changed configuration."""

import logging

import pytest

from repro.apps import make_app
from repro.exec.checkpoint import campaign_digest
from repro.injection import FaultSpec, InjectionPoint, InjectionRecord, Outcome
from repro.injection import TestResult as InjectionTestResult
from repro.obs.metrics import MetricsRegistry
from repro.store import CampaignDB, DBCheckpointStore
from repro.store.db import result_from_row


@pytest.fixture(scope="module")
def app():
    return make_app("lu", "T")


def _points(n=2):
    return [InjectionPoint(0, "Allreduce", f"f.py:{i}", 0) for i in range(n)]


def _tests(point, n=3):
    return [
        InjectionTestResult(FaultSpec(point, "count", None), Outcome.SUCCESS, None)
        for _ in range(n)
    ]


def _digest(app, **over):
    kwargs = dict(
        seed=0, tests_per_point=8, param_policy="buffer", unit_tests=2,
        points=_points(), algorithms=None,
    )
    kwargs.update(over)
    return campaign_digest(app, **kwargs)


def _store(tmp_path, digest):
    return DBCheckpointStore(tmp_path / "ck" / "campaign.db", digest)


def test_digest_sensitive_to_every_config_axis(app):
    base = _digest(app)
    assert _digest(app) == base  # stable
    assert _digest(app, seed=1) != base
    assert _digest(app, tests_per_point=9) != base
    assert _digest(app, param_policy="all") != base
    assert _digest(app, unit_tests=4) != base
    assert _digest(app, points=_points(3)) != base
    assert _digest(app, algorithms={"bcast": "chain"}) != base
    assert _digest(app, code_version="0.0.0") != base


def test_round_trip_preserves_tests_and_metrics(tmp_path, app):
    """A unit's rows give back its tests whole (given their specs, which
    resume redraws) and its metrics."""
    digest = _digest(app)
    point = _points()[0]
    struck = InjectionPoint(2, "Bcast", "g.py:9", 3)  # a scenario strike lands elsewhere
    first = [
        InjectionTestResult(
            FaultSpec(point, "count"), Outcome.WRONG_ANS,
            InjectionRecord("count", "scalar", 5, 0, False, "Allreduce", "f.py:0", 0, "4", "36"),
            "wrong answer",
        ),
        InjectionTestResult(
            FaultSpec(point, "sendbuf"), Outcome.SUCCESS,
            InjectionRecord("sendbuf", "buffer", 40, 4, True, struck.collective,
                            struck.site, struck.invocation),
        ),
    ]
    store = _store(tmp_path, digest)
    assert store.load(resume=False) == {}
    reg = MetricsRegistry()
    reg.counter("campaign.tests").inc(3)
    reg.timer("exec.unit_s").record(0.25)
    store.record("p0:t0-2", first, reg)
    store.record("p0:t2-4", _tests(point, 2), None)
    store.close()

    again = _store(tmp_path, digest)
    loaded = again.load(resume=True)
    again.close()
    assert set(loaded) == {"p0:t0-2", "p0:t2-4"}
    rows, metrics = loaded["p0:t0-2"]
    assert [result_from_row(row, t.spec) for row, t in zip(rows, first)] == first
    assert [row["bit"] for row in rows] == [5, None]  # NULL: no fault fired
    assert metrics.to_dict() == reg.to_dict()
    rows, metrics = loaded["p0:t2-4"]
    assert [result_from_row(row, FaultSpec(point, "count")) for row in rows] == _tests(point, 2)
    assert metrics is None


class _Unbindable:
    """A ``results`` value SQLite cannot adapt: the write fails inside
    the unit's transaction."""

    def __conform__(self, protocol):
        raise RuntimeError("simulated torn write")


def test_torn_final_record_is_dropped(tmp_path, app):
    """A unit whose record fails mid-transaction is absent on resume;
    every unit committed before it survives."""
    digest = _digest(app)
    point = _points()[0]
    store = _store(tmp_path, digest)
    store.load(resume=False)
    store.record("p0:t0-2", _tests(point, 2), None)
    torn = _tests(point, 2)
    torn[-1] = InjectionTestResult(torn[-1].spec, Outcome.SUCCESS, None, _Unbindable())
    with pytest.raises(RuntimeError, match="torn write"):
        store.record("p0:t2-4", torn, None)
    store.close()

    again = _store(tmp_path, digest)
    loaded = again.load(resume=True)
    again.close()
    assert set(loaded) == {"p0:t0-2"}


def test_resume_with_wrong_digest_starts_fresh(tmp_path, app, caplog):
    """A changed configuration has a different digest, so resuming it
    opens a new campaign row (with one WARNING) and leaves the old row
    untouched."""
    store = _store(tmp_path, _digest(app))
    store.load(resume=False)
    store.record("p0:t0-2", _tests(_points()[0], 2), None)
    store.close()

    other = _store(tmp_path, _digest(app, seed=99))
    with caplog.at_level(logging.WARNING, logger="repro.store.db"):
        assert other.load(resume=True) == {}
    other.close()
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "starting fresh" in warnings[0].getMessage()

    again = _store(tmp_path, _digest(app))
    assert set(again.load(resume=True)) == {"p0:t0-2"}
    again.close()


def test_fresh_start_discards_existing_checkpoint(tmp_path, app):
    """``resume=False`` drops this digest's units, and only this
    digest's: other campaigns in the file are untouched."""
    point = _points()[0]
    store = _store(tmp_path, _digest(app))
    store.load(resume=False)
    store.record("p0:t0-2", _tests(point, 2), None)
    store.close()
    other = _store(tmp_path, _digest(app, seed=99))
    other.load(resume=False)
    other.record("p0:t0-2", _tests(point, 2), None)
    other.close()

    fresh = _store(tmp_path, _digest(app))
    assert fresh.load(resume=False) == {}
    fresh.close()
    again = _store(tmp_path, _digest(app, seed=99))
    assert set(again.load(resume=True)) == {"p0:t0-2"}
    again.close()


def test_manifest_written_atomically(tmp_path, app):
    """``write_manifest`` updates the campaign row in one transaction;
    a second connection sees the new totals."""
    digest = _digest(app)
    store = _store(tmp_path, digest)
    store.load(resume=False)
    store.record("p0:t0-2", _tests(_points()[0], 2), None)
    store.write_manifest(total_units=4, complete=False)
    with CampaignDB(store.path) as db:
        row = db.campaign(digest)
        assert row["total_units"] == 4
        assert row["complete"] == 0
        assert not db.conn.in_transaction
    store.close()


def test_record_is_durable_synchronous_full(tmp_path, app):
    """Each recorded unit is committed in WAL mode with
    ``synchronous=FULL``, so it survives host power loss."""
    store = _store(tmp_path, _digest(app))
    store.load(resume=False)
    store.record("p0:t0-2", _tests(_points()[0], 2), None)
    conn = store.db.conn
    assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    assert conn.execute("PRAGMA synchronous").fetchone()[0] == 2  # FULL
    assert not conn.in_transaction
    store.close()


def test_manifest_records_quarantined_units(tmp_path, app):
    digest = _digest(app)
    store = _store(tmp_path, digest)
    store.load(resume=False)
    store.record("p0:t0-2", _tests(_points()[0], 2), None)
    store.write_manifest(total_units=4, complete=False, quarantined=["p1:t0-2"])
    store.close()

    again = _store(tmp_path, digest)
    assert set(again.load(resume=True)) == {"p0:t0-2"}
    rows = again.db.quarantine_records(again.campaign_id)
    assert [r["unit_id"] for r in rows] == ["p1:t0-2"]
    again.close()


def test_closed_property(tmp_path, app):
    store = _store(tmp_path, _digest(app))
    assert store.closed
    store.load(resume=False)
    assert not store.closed
    store.close()
    assert store.closed
    store.close()  # idempotent
