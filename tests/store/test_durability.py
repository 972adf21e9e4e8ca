"""Store durability: torn writes roll back whole units, lock contention
surfaces as a clean :class:`CampaignStoreError`, never corruption."""

import sqlite3

import pytest

from repro.injection import FaultSpec, InjectionPoint, Outcome
from repro.injection import TestResult as InjectionTestResult
from repro.store import CampaignDB, CampaignStoreError

DIGEST = "f" * 64


def make_tests(point_index=0, n=3):
    point = InjectionPoint(0, "allreduce", f"f.py:{point_index}", 0)
    return [
        InjectionTestResult(FaultSpec(point, "sendbuf", i), Outcome.SUCCESS, None)
        for i in range(n)
    ]


class PoisonDetail:
    """A ``results`` value SQLite cannot bind: adapting it raises, so
    record_unit fails *inside* its transaction, after the units INSERT
    already executed."""

    def __conform__(self, protocol):
        raise RuntimeError("simulated torn write")


def poisoned_tests(point_index):
    """A unit whose last test carries a :class:`PoisonDetail`."""
    *tests, last = make_tests(point_index)
    return [*tests, InjectionTestResult(last.spec, last.outcome, None, PoisonDetail())]


def test_torn_write_rolls_back_whole_unit(tmp_path):
    """A failure mid-record must lose exactly that unit: the durable
    prefix survives, the database stays consistent and writable."""
    with CampaignDB(tmp_path / "c.sqlite") as db:
        cid = db.create_campaign(DIGEST, app="lu")
        db.record_unit(cid, "p0:t0-3", make_tests(0))

        with pytest.raises(RuntimeError, match="torn write"):
            db.record_unit(cid, "p1:t0-3", poisoned_tests(1))

        # the interrupted unit vanished entirely -- no units row, no
        # results rows, and the connection is out of the transaction
        assert not db.conn.in_transaction
        assert set(db.load_units(cid)) == {"p0:t0-3"}
        assert db.outcome_histogram(cid) == {"SUCCESS": 3}

        # the store keeps working: the retried unit lands cleanly
        db.record_unit(cid, "p1:t0-3", make_tests(1))
        assert set(db.load_units(cid)) == {"p0:t0-3", "p1:t0-3"}
        assert db.outcome_histogram(cid) == {"SUCCESS": 6}


def test_torn_write_survives_reopen(tmp_path):
    """Same scenario, but checked through a fresh connection — what a
    resume after a crash actually sees."""
    path = tmp_path / "c.sqlite"
    db = CampaignDB(path).open()
    cid = db.create_campaign(DIGEST, app="lu")
    db.record_unit(cid, "p0:t0-3", make_tests(0))
    with pytest.raises(RuntimeError):
        db.record_unit(cid, "p1:t0-3", poisoned_tests(1))
    db.close()

    with CampaignDB(path) as again:
        cid = again.campaign_id(DIGEST)
        assert set(again.load_units(cid)) == {"p0:t0-3"}


@pytest.fixture
def blocked(tmp_path):
    """A campaign DB plus a second connection holding the write lock."""
    path = tmp_path / "c.sqlite"
    db = CampaignDB(path, timeout=0.2).open()
    cid = db.create_campaign(DIGEST, app="lu")
    blocker = sqlite3.connect(path, timeout=0.2, isolation_level=None)
    blocker.execute("BEGIN IMMEDIATE")
    yield db, cid, blocker
    blocker.close()
    db.close()


def test_locked_db_record_raises_store_error(blocked):
    db, cid, blocker = blocked
    with pytest.raises(CampaignStoreError, match="locked"):
        db.record_unit(cid, "p0:t0-3", make_tests())
    # nothing half-written
    assert not db.conn.in_transaction
    assert db.load_units(cid) == {}

    blocker.execute("ROLLBACK")
    db.record_unit(cid, "p0:t0-3", make_tests())
    assert set(db.load_units(cid)) == {"p0:t0-3"}


def test_locked_db_create_campaign_raises_store_error(blocked):
    db, _, _ = blocked
    with pytest.raises(CampaignStoreError, match="locked"):
        db.create_campaign("e" * 64, app="lu")


def test_reads_proceed_under_write_lock(blocked):
    """WAL keeps readers unblocked while a writer holds the lock."""
    db, cid, _ = blocked
    assert db.load_units(cid) == {}
    assert db.campaign(DIGEST)["app"] == "lu"
