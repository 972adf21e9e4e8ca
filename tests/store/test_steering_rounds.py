"""Store coverage for the steering_rounds table and the schema migrations."""

import json
import sqlite3

import pytest

from repro.store.db import CampaignDB, CampaignStoreError
from repro.store.schema import SCHEMA_VERSION


def _open_with_campaign(path):
    db = CampaignDB(path).open()
    cid = db.create_campaign("digest-steer", app="lu", seed=7)
    return db, cid


class TestSteeringRoundsRoundtrip:
    def test_roundtrip(self, tmp_path):
        db, cid = _open_with_campaign(tmp_path / "c.sqlite")
        db.record_steering_round(
            cid, 0, point_indices=[4, 1, 9], tests_planned=36, tests_run=30,
            budget_used=30,
        )
        db.record_steering_round(
            cid, 1, point_indices=[2, 7], tests_planned=24, tests_run=24,
            budget_used=54, accuracy=0.75, mean_uncertainty=0.5,
            stop_reason="accuracy",
        )
        rows = db.steering_rounds(cid)
        assert [r["round"] for r in rows] == [0, 1]
        first, second = rows
        assert json.loads(first["point_indices"]) == [4, 1, 9]
        assert first["n_points"] == 3
        assert first["tests_saved"] == 6
        assert first["accuracy"] is None
        assert first["mean_uncertainty"] is None
        assert first["stop_reason"] == ""
        assert second["budget_used"] == 54
        assert second["accuracy"] == 0.75
        assert second["stop_reason"] == "accuracy"
        db.close()

    def test_rerecord_is_idempotent(self, tmp_path):
        # A resumed driver re-records replayed rounds; the final value
        # (with its stop_reason) must win without duplicating rows.
        db, cid = _open_with_campaign(tmp_path / "c.sqlite")
        db.record_steering_round(
            cid, 0, point_indices=[1], tests_planned=12, tests_run=12,
            budget_used=12,
        )
        db.record_steering_round(
            cid, 0, point_indices=[1], tests_planned=12, tests_run=12,
            budget_used=12, stop_reason="budget",
        )
        rows = db.steering_rounds(cid)
        assert len(rows) == 1
        assert rows[0]["stop_reason"] == "budget"
        db.close()

    def test_cascade_delete_with_campaign(self, tmp_path):
        path = tmp_path / "c.sqlite"
        db, cid = _open_with_campaign(path)
        db.record_steering_round(
            cid, 0, point_indices=[0], tests_planned=4, tests_run=4,
            budget_used=4,
        )
        # fresh=True re-creates the campaign row; the cascade must take
        # the steering rounds with the old row.
        new_cid = db.create_campaign("digest-steer", fresh=True)
        assert db.steering_rounds(cid) == []
        assert db.steering_rounds(new_cid) == []
        db.close()


#: The ``results`` columns schema v4 added: the test's injection record.
V4_RECORD_COLUMNS = (
    "fault_param", "kind", "fault_bit", "extent_bytes", "skipped",
    "fault_collective", "fault_site", "fault_invocation", "before", "after",
)


def _columns(conn, table):
    return {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}


def fabricate_old_version(path, version: int):
    """Downgrade a database on disk (a fresh one, or one a campaign
    wrote) to an older schema.  Before v4, ``units`` kept each unit's
    tests and metrics as serialised BLOBs."""
    db = CampaignDB(path).open()
    db.close()
    conn = sqlite3.connect(path)
    for name in V4_RECORD_COLUMNS:
        if name in _columns(conn, "results"):
            conn.execute(f"ALTER TABLE results DROP COLUMN {name}")
    if "payload" not in _columns(conn, "units"):
        conn.execute("ALTER TABLE units DROP COLUMN metrics")
        conn.execute("ALTER TABLE units ADD COLUMN payload BLOB NOT NULL DEFAULT x''")
        conn.execute("ALTER TABLE units ADD COLUMN metrics BLOB")
    if version < 3:
        conn.execute("DROP TABLE steering_rounds")
    if version < 2:
        conn.execute("ALTER TABLE results DROP COLUMN model")
    conn.execute(
        "UPDATE schema_meta SET value = ? WHERE key = 'schema_version'",
        (str(version),),
    )
    conn.commit()
    conn.close()


class TestMigration:
    @pytest.mark.parametrize("old_version", [1, 2, 3])
    def test_migrates_in_place(self, tmp_path, old_version):
        path = tmp_path / "old.sqlite"
        fabricate_old_version(path, old_version)
        db = CampaignDB(path).open()
        row = db.conn.execute(
            "SELECT value FROM schema_meta WHERE key = 'schema_version'"
        ).fetchone()
        assert int(row["value"]) == SCHEMA_VERSION == 4
        # v2 artefact: results.model exists again.
        cols = _columns(db.conn, "results")
        assert "model" in cols
        # v4 artefacts: the record lives in results, units hold no BLOB.
        assert set(V4_RECORD_COLUMNS) <= cols
        units = db.conn.execute("PRAGMA table_info(units)").fetchall()
        assert "payload" not in {r["name"] for r in units}
        assert "BLOB" not in {r["type"] for r in units}
        # v3 artefact: steering_rounds usable.
        cid = db.create_campaign("migrated")
        db.record_steering_round(
            cid, 0, point_indices=[0], tests_planned=1, tests_run=1,
            budget_used=1,
        )
        assert len(db.steering_rounds(cid)) == 1
        db.close()

    def test_newer_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        db = CampaignDB(path).open()
        db.conn.execute(
            "UPDATE schema_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        db.close()
        with pytest.raises(CampaignStoreError, match="schema version"):
            CampaignDB(path).open()
