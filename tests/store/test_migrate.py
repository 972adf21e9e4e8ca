"""Legacy pickle checkpoint -> SQLite migration (``fastfit migrate``)."""

import json
import pickle

import pytest

from repro.injection import Campaign, enumerate_points
from repro.store import CampaignDB, MigrationError, migrate_checkpoint

TESTS_PER_POINT = 4
SEED = 11


def write_legacy_checkpoint(db_path, ckdir):
    """Rewrite the one campaign stored in ``db_path`` as a legacy pickle
    checkpoint directory: a ``units.pkl`` stream (digest header, then one
    record per unit) plus its ``manifest.json``."""
    with CampaignDB(db_path) as db:
        row = db.campaign()
        units = db.load_units(row["id"])
    ckdir.mkdir(parents=True, exist_ok=True)
    with (ckdir / "units.pkl").open("wb") as fh:
        pickle.dump({"digest": row["digest"], "format": 1}, fh)
        for unit_id, (tests, metrics) in sorted(units.items()):
            pickle.dump(
                {"type": "unit", "unit_id": unit_id, "tests": tests, "metrics": metrics},
                fh,
            )
    (ckdir / "manifest.json").write_text(json.dumps({
        "digest": row["digest"],
        "completed": sorted(units),
        "n_completed": len(units),
        "complete": bool(row["complete"]),
        "total_units": row["total_units"],
    }))


@pytest.fixture(scope="module")
def points(lu_profile):
    return enumerate_points(lu_profile)[:4]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, lu_app, lu_profile, points):
    """A completed legacy pickle checkpoint plus its campaign result."""
    root = tmp_path_factory.mktemp("migrate")
    result = Campaign(
        lu_app, lu_profile, tests_per_point=TESTS_PER_POINT,
        param_policy="all", seed=SEED, db_path=root / "src.db",
    ).run(points)
    write_legacy_checkpoint(root / "src.db", root / "ck")
    return root / "ck", result


def test_migrate_roundtrip(checkpoint, tmp_path):
    ckdir, result = checkpoint
    db_path = tmp_path / "c.sqlite"
    summary = migrate_checkpoint(ckdir, db_path)
    assert summary["complete"] is True
    assert summary["tests"] == len(result.all_tests())

    with CampaignDB(db_path) as db:
        row = db.campaign(summary["digest"])
        assert row["complete"] == 1
        assert summary["units"] == len(db.load_units(row["id"]))
        hist = db.outcome_histogram(row["id"])
    counted = {}
    for t in result.all_tests():
        counted[t.outcome.name] = counted.get(t.outcome.name, 0) + 1
    assert hist == counted


def test_migrate_duplicate_digest_needs_overwrite(checkpoint, tmp_path):
    ckdir, _ = checkpoint
    db_path = tmp_path / "c.sqlite"
    first = migrate_checkpoint(ckdir, db_path)
    with pytest.raises(MigrationError, match="--overwrite"):
        migrate_checkpoint(ckdir, db_path)
    again = migrate_checkpoint(ckdir, db_path, overwrite=True)
    assert again["digest"] == first["digest"]
    assert again["units"] == first["units"]


def test_migrate_tolerates_torn_tail(checkpoint, tmp_path):
    """A unit stream truncated mid-record migrates its durable prefix."""
    ckdir, _ = checkpoint
    torn = tmp_path / "ck"
    torn.mkdir()
    src = (ckdir / "units.pkl").read_bytes()
    (torn / "units.pkl").write_bytes(src[:-20])

    summary = migrate_checkpoint(torn, tmp_path / "c.sqlite")
    full = migrate_checkpoint(ckdir, tmp_path / "full.sqlite")
    assert summary["units"] == full["units"] - 1
    # no manifest in the torn copy: the campaign stays incomplete
    assert summary["complete"] is False


def test_migrate_missing_checkpoint_is_migration_error(tmp_path):
    with pytest.raises(MigrationError, match="no checkpoint"):
        migrate_checkpoint(tmp_path / "nowhere", tmp_path / "c.sqlite")


def test_migrate_headerless_stream_rejected(tmp_path):
    ck = tmp_path / "ck"
    ck.mkdir()
    with (ck / "units.pkl").open("wb") as fh:
        pickle.dump({"not": "a header"}, fh)
    with pytest.raises(MigrationError):
        migrate_checkpoint(ck, tmp_path / "c.sqlite")
