"""Legacy pickle checkpoint directory → SQLite campaign database.

Before the campaign database became the only store, ``--checkpoint-dir``
wrote an append-only pickle stream (``units.pkl``) plus a JSON manifest.
Those directories stay analyzable: this reads the stream (torn tail
dropped) plus the manifest, and replays every unit through the database
writer — so the migrated campaign has the same queryable ``results``
rows, quarantine records, and completion state a ``--db`` run would have
produced.  Nothing else in the package reads or writes the old format.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

from .db import CampaignDB, CampaignStoreError

UNITS_FILE = "units.pkl"
MANIFEST_FILE = "manifest.json"


class MigrationError(RuntimeError):
    """The checkpoint directory cannot be converted."""


def migrate_checkpoint(
    checkpoint_dir: str | os.PathLike,
    db_path: str | os.PathLike,
    *,
    overwrite: bool = False,
) -> dict:
    """Convert one legacy pickle checkpoint directory into ``db_path``.

    Returns a summary dict: ``digest``, ``units``, ``tests``,
    ``quarantined``, ``complete``.  ``overwrite=True`` replaces an
    existing campaign with the same digest; otherwise a duplicate digest
    raises :class:`MigrationError`.
    """
    directory = Path(checkpoint_dir)
    units_path = directory / UNITS_FILE
    if not units_path.exists():
        raise MigrationError(f"no checkpoint stream at {units_path}")

    digest: str | None = None
    units: dict[str, tuple] = {}
    with units_path.open("rb") as fh:
        try:
            header = pickle.load(fh)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise MigrationError(f"unreadable checkpoint header in {units_path}") from exc
        if not isinstance(header, dict) or "digest" not in header:
            raise MigrationError(f"{units_path} does not start with a digest header")
        digest = header["digest"]
        while True:
            try:
                record = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError, AttributeError):
                break  # clean end of stream or torn final record
            if record.get("type") == "unit":
                units[record["unit_id"]] = (record["tests"], record.get("metrics"))

    manifest: dict = {}
    manifest_path = directory / MANIFEST_FILE
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            manifest = {}  # stream is the source of truth; manifest is advisory

    with CampaignDB(db_path) as db:
        existing = db.campaign_id(digest)
        if existing is not None and not overwrite:
            raise MigrationError(
                f"campaign {digest[:12]} already exists in {db.path}; "
                "pass --overwrite to replace it"
            )
        campaign_id = db.create_campaign(digest, fresh=overwrite)
        n_tests = 0
        merged = None
        for unit_id, (tests, registry) in sorted(units.items()):
            db.record_unit(campaign_id, unit_id, tests, registry)
            n_tests += len(tests)
            if registry is not None:
                if merged is None:
                    from ..obs.metrics import MetricsRegistry

                    merged = MetricsRegistry()
                merged.merge(registry)
        if merged is not None:
            db.record_metrics(campaign_id, "migrated", merged)
        quarantined = list(manifest.get("quarantined", []))
        db.update_campaign(
            campaign_id,
            complete=bool(manifest.get("complete", False)),
            total_units=manifest.get("total_units"),
            quarantined=quarantined,
        )
    return {
        "digest": digest,
        "units": len(units),
        "tests": n_tests,
        "quarantined": len(quarantined),
        "complete": bool(manifest.get("complete", False)),
    }


def refuse_legacy_checkpoint(
    checkpoint_dir: str | os.PathLike, db_path: str | os.PathLike
) -> None:
    """Raise :class:`CampaignStoreError` when ``checkpoint_dir`` holds a
    legacy stream: resuming would silently start over beside it."""
    if (Path(checkpoint_dir) / UNITS_FILE).exists():
        raise CampaignStoreError(
            f"{checkpoint_dir} holds a legacy pickle checkpoint; convert it "
            f"first: fastfit migrate --checkpoint-dir {checkpoint_dir} "
            f"--db {db_path}"
        )
