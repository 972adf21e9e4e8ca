"""The SQLite campaign store — the only persistence backend.

:class:`CampaignDB` owns one database file (any number of campaigns,
keyed by digest) and the low-level query surface; :class:`DBCheckpointStore`
is the adapter the campaign engine drives — a ``load``/``record``/
``write_manifest``/``close`` lifecycle where each unit is committed
atomically, resume is a query, and every recorded unit is
simultaneously denormalised into queryable per-test ``results`` rows.
``--checkpoint-dir DIR`` is this store at ``DIR/campaign.db``.

A digest mismatch is impossible here: the database keys campaigns *by*
digest, so resuming a changed configuration simply starts (or
continues) a different campaign row in the same file.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import sqlite3
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from ..injection.runner import TestResult
from ..obs.metrics import MetricsRegistry
from ..exec.sharding import WorkUnit
from .schema import SCHEMA, SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.progress import ProgressSnapshot

logger = logging.getLogger(__name__)


class CampaignStoreError(RuntimeError):
    """The campaign database could not be opened or written (typically a
    concurrent writer holding the lock past the busy timeout)."""


def _locked(exc: sqlite3.Error) -> bool:
    return "locked" in str(exc) or "busy" in str(exc)


class CampaignDB:
    """One campaign database file: connection, schema, queries.

    The connection runs in WAL mode with ``synchronous=FULL`` so a
    committed unit survives host power loss.
    """

    def __init__(self, path: str | os.PathLike, timeout: float = 30.0):
        self.path = Path(path)
        self.timeout = timeout
        self._conn: sqlite3.Connection | None = None

    # -- lifecycle -----------------------------------------------------

    def open(self) -> "CampaignDB":
        if self._conn is not None:
            return self
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            conn = sqlite3.connect(
                self.path, timeout=self.timeout, isolation_level=None
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=FULL")
            conn.execute("PRAGMA foreign_keys=ON")
            conn.execute(f"PRAGMA busy_timeout={int(self.timeout * 1000)}")
            conn.executescript(SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO schema_meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
        except sqlite3.Error as exc:
            raise CampaignStoreError(
                f"cannot open campaign database {self.path}: {exc}"
            ) from exc
        found = conn.execute(
            "SELECT value FROM schema_meta WHERE key = 'schema_version'"
        ).fetchone()
        if found is not None and int(found["value"]) < SCHEMA_VERSION:
            # Chained in-place migrations, one version at a time.
            version = int(found["value"])
            try:
                conn.execute("BEGIN IMMEDIATE")
                while version < SCHEMA_VERSION:
                    if version == 1:
                        # v1 -> v2: results grew a per-test fault-model
                        # column.  Every pre-existing row was necessarily
                        # a single-bit test, which is exactly the column
                        # default — migrate in place.
                        conn.execute(
                            "ALTER TABLE results "
                            "ADD COLUMN model TEXT NOT NULL DEFAULT 'bitflip'"
                        )
                    elif version == 2:
                        # v2 -> v3: the steering_rounds table, already
                        # created by the CREATE TABLE IF NOT EXISTS pass
                        # above; older campaigns simply have no rounds.
                        pass
                    version += 1
                conn.execute(
                    "UPDATE schema_meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION),),
                )
                conn.execute("COMMIT")
            except sqlite3.Error as exc:
                conn.close()
                raise CampaignStoreError(
                    f"cannot migrate campaign database {self.path} "
                    f"from schema v{found['value']} to v{SCHEMA_VERSION}: {exc}"
                ) from exc
            found = {"value": str(SCHEMA_VERSION)}
        if found is not None and int(found["value"]) != SCHEMA_VERSION:
            conn.close()
            raise CampaignStoreError(
                f"campaign database {self.path} has schema version "
                f"{found['value']}, this build expects {SCHEMA_VERSION}"
            )
        self._conn = conn
        return self

    @property
    def conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise RuntimeError("CampaignDB.open() must be called first")
        return self._conn

    @property
    def closed(self) -> bool:
        return self._conn is None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "CampaignDB":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transactions ---------------------------------------------------

    def _transaction(self) -> "_Transaction":
        return _Transaction(self.conn)

    # -- campaign rows ---------------------------------------------------

    def create_campaign(
        self,
        digest: str,
        *,
        fresh: bool = False,
        app: str | None = None,
        nranks: int | None = None,
        seed: int | None = None,
        tests_per_point: int | None = None,
        param_policy: str | None = None,
        unit_tests: int | None = None,
        algorithms: dict[str, str] | None = None,
        code_version: str | None = None,
        n_points: int | None = None,
        total_units: int | None = None,
    ) -> int:
        """Get-or-create the campaign row for ``digest``; returns its id.

        ``fresh=True`` drops any prior row (and, via cascade, all its
        units/results/telemetry) first — what a run without
        ``--resume`` does.
        """
        now = time.time()
        try:
            with self._transaction():
                if fresh:
                    self.conn.execute(
                        "DELETE FROM campaigns WHERE digest = ?", (digest,)
                    )
                row = self.conn.execute(
                    "SELECT id FROM campaigns WHERE digest = ?", (digest,)
                ).fetchone()
                if row is not None:
                    return int(row["id"])
                cur = self.conn.execute(
                    """
                    INSERT INTO campaigns (
                        digest, app, nranks, seed, tests_per_point,
                        param_policy, unit_tests, algorithms, code_version,
                        n_points, total_units, complete, created_at, updated_at
                    ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0, ?, ?)
                    """,
                    (
                        digest, app, nranks, seed, tests_per_point,
                        param_policy, unit_tests,
                        json.dumps(dict(sorted((algorithms or {}).items()))),
                        code_version, n_points, total_units, now, now,
                    ),
                )
                return int(cur.lastrowid)
        except sqlite3.Error as exc:
            if _locked(exc):
                raise CampaignStoreError(
                    f"campaign database {self.path} is locked by another "
                    f"process (waited {self.timeout:g}s)"
                ) from exc
            raise

    def campaign_id(self, digest: str) -> int | None:
        row = self.conn.execute(
            "SELECT id FROM campaigns WHERE digest = ?", (digest,)
        ).fetchone()
        return None if row is None else int(row["id"])

    def campaigns(self) -> list[sqlite3.Row]:
        """All campaign rows, most recently updated first."""
        return self.conn.execute(
            "SELECT * FROM campaigns ORDER BY updated_at DESC, id DESC"
        ).fetchall()

    def campaign(self, digest: str | None = None) -> sqlite3.Row | None:
        """One campaign row: by digest (prefix match allowed), or the most
        recently updated one when ``digest`` is None."""
        if digest is None:
            rows = self.campaigns()
            return rows[0] if rows else None
        row = self.conn.execute(
            "SELECT * FROM campaigns WHERE digest = ?", (digest,)
        ).fetchone()
        if row is None:
            rows = self.conn.execute(
                "SELECT * FROM campaigns WHERE digest LIKE ? || '%'", (digest,)
            ).fetchall()
            if len(rows) > 1:
                raise CampaignStoreError(
                    f"digest prefix {digest!r} is ambiguous "
                    f"({len(rows)} campaigns match)"
                )
            row = rows[0] if rows else None
        return row

    # -- units & results --------------------------------------------------

    def record_unit(
        self,
        campaign_id: int,
        unit_id: str,
        tests: list[TestResult],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Persist one completed unit: its pickled payload *and* the
        denormalised per-test rows, atomically.

        A process killed inside this call loses the whole unit (the
        transaction rolls back) and nothing else.
        """
        unit = WorkUnit.from_unit_id(unit_id)
        rows = []
        for offset, t in enumerate(tests):
            p = t.spec.point
            rows.append(
                (
                    campaign_id, unit_id, unit.point_index,
                    unit.test_start + offset,
                    p.rank, p.collective, p.site, p.invocation,
                    t.spec.param,
                    None if t.record is None or t.record.skipped else t.record.bit,
                    getattr(t.spec, "model", "bitflip"),
                    t.outcome.name, int(t.injected), t.detail,
                )
            )
        try:
            with self._transaction():
                self.conn.execute(
                    """
                    INSERT OR REPLACE INTO units (
                        campaign_id, unit_id, point_index, test_start,
                        test_stop, n_tests, payload, metrics, recorded_at
                    ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        campaign_id, unit_id, unit.point_index,
                        unit.test_start, unit.test_stop, len(tests),
                        pickle.dumps(tests, protocol=pickle.HIGHEST_PROTOCOL),
                        None
                        if metrics is None
                        else pickle.dumps(metrics, protocol=pickle.HIGHEST_PROTOCOL),
                        time.time(),
                    ),
                )
                self.conn.executemany(
                    """
                    INSERT OR REPLACE INTO results (
                        campaign_id, unit_id, point_index, test_index,
                        rank, collective, site, invocation, param, bit,
                        model, outcome, injected, detail
                    ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    rows,
                )
        except sqlite3.Error as exc:
            if _locked(exc):
                raise CampaignStoreError(
                    f"campaign database {self.path} is locked by another "
                    f"process (waited {self.timeout:g}s)"
                ) from exc
            raise

    def load_units(
        self, campaign_id: int
    ) -> dict[str, tuple[list[TestResult], MetricsRegistry | None]]:
        """All recorded units of a campaign — the resume query."""
        out: dict[str, tuple[list[TestResult], MetricsRegistry | None]] = {}
        for row in self.conn.execute(
            "SELECT unit_id, payload, metrics FROM units "
            "WHERE campaign_id = ? ORDER BY point_index, test_start",
            (campaign_id,),
        ):
            out[row["unit_id"]] = (
                pickle.loads(row["payload"]),
                None if row["metrics"] is None else pickle.loads(row["metrics"]),
            )
        return out

    def outcome_histogram(self, campaign_id: int) -> dict[str, int]:
        """``select outcome, count(*) from results group by outcome``."""
        return {
            row["outcome"]: row["n"]
            for row in self.conn.execute(
                "SELECT outcome, COUNT(*) AS n FROM results "
                "WHERE campaign_id = ? GROUP BY outcome ORDER BY outcome",
                (campaign_id,),
            )
        }

    def results(self, campaign_id: int) -> Iterator[sqlite3.Row]:
        """Every test row in canonical (point, test) order."""
        return self.conn.execute(
            "SELECT * FROM results WHERE campaign_id = ? "
            "ORDER BY point_index, test_index",
            (campaign_id,),
        )

    # -- assembly-time aggregates ------------------------------------------

    def record_point_tallies(
        self, campaign_id: int, tallies: list[tuple[Any, ...]]
    ) -> None:
        """Replace the per-point outcome tallies.  Each entry is
        ``(point_index, rank, collective, site, invocation, outcome, n)``."""
        with self._transaction():
            self.conn.execute(
                "DELETE FROM point_tallies WHERE campaign_id = ?", (campaign_id,)
            )
            self.conn.executemany(
                "INSERT INTO point_tallies (campaign_id, point_index, rank, "
                "collective, site, invocation, outcome, n) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [(campaign_id, *t) for t in tallies],
            )

    def point_tallies(self, campaign_id: int) -> list[sqlite3.Row]:
        return self.conn.execute(
            "SELECT * FROM point_tallies WHERE campaign_id = ? "
            "ORDER BY point_index, outcome",
            (campaign_id,),
        ).fetchall()

    def record_metrics(
        self, campaign_id: int, label: str, registry: MetricsRegistry
    ) -> None:
        with self._transaction():
            self.conn.execute(
                "INSERT OR REPLACE INTO metrics_snapshots "
                "(campaign_id, label, payload, recorded_at) VALUES (?, ?, ?, ?)",
                (campaign_id, label, registry.to_json(indent=0), time.time()),
            )

    def metrics_snapshot(self, campaign_id: int, label: str) -> dict | None:
        row = self.conn.execute(
            "SELECT payload FROM metrics_snapshots "
            "WHERE campaign_id = ? AND label = ?",
            (campaign_id, label),
        ).fetchone()
        return None if row is None else json.loads(row["payload"])

    def record_quarantine(self, campaign_id: int, unit_id: str, reason: str) -> None:
        with self._transaction():
            self.conn.execute(
                "INSERT OR REPLACE INTO quarantine "
                "(campaign_id, unit_id, reason, recorded_at) VALUES (?, ?, ?, ?)",
                (campaign_id, unit_id, reason, time.time()),
            )

    def quarantine_records(self, campaign_id: int) -> list[sqlite3.Row]:
        return self.conn.execute(
            "SELECT * FROM quarantine WHERE campaign_id = ? ORDER BY unit_id",
            (campaign_id,),
        ).fetchall()

    def record_progress(self, campaign_id: int, snap: "ProgressSnapshot") -> None:
        with self._transaction():
            self.conn.execute(
                """
                INSERT OR REPLACE INTO progress (
                    campaign_id, seq, ts, elapsed_s, done_tests, total_tests,
                    done_units, total_units, tests_per_sec, eta_s, outcomes,
                    workers, worker_deaths, retries, quarantined
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    campaign_id, snap.seq, snap.ts, snap.elapsed_s,
                    snap.done_tests, snap.total_tests, snap.done_units,
                    snap.total_units, snap.tests_per_sec, snap.eta_s,
                    json.dumps(snap.outcomes, sort_keys=True),
                    snap.workers, snap.worker_deaths, snap.retries,
                    snap.quarantined,
                ),
            )

    def record_steering_round(
        self,
        campaign_id: int,
        round_no: int,
        *,
        point_indices: list[int],
        tests_planned: int,
        tests_run: int,
        budget_used: int,
        accuracy: float | None = None,
        mean_uncertainty: float | None = None,
        stop_reason: str = "",
    ) -> None:
        """Persist one adaptive-steering round (idempotent: a resumed
        driver re-records the rounds it replays, byte-identically)."""
        with self._transaction():
            self.conn.execute(
                """
                INSERT OR REPLACE INTO steering_rounds (
                    campaign_id, round, point_indices, n_points,
                    tests_planned, tests_run, tests_saved, budget_used,
                    accuracy, mean_uncertainty, stop_reason, recorded_at
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    campaign_id, round_no,
                    json.dumps([int(i) for i in point_indices]),
                    len(point_indices), tests_planned, tests_run,
                    max(0, tests_planned - tests_run), budget_used,
                    accuracy, mean_uncertainty, stop_reason, time.time(),
                ),
            )

    def steering_rounds(self, campaign_id: int) -> list[sqlite3.Row]:
        return self.conn.execute(
            "SELECT * FROM steering_rounds WHERE campaign_id = ? ORDER BY round",
            (campaign_id,),
        ).fetchall()

    def progress_rows(self, campaign_id: int) -> list[sqlite3.Row]:
        return self.conn.execute(
            "SELECT * FROM progress WHERE campaign_id = ? ORDER BY seq",
            (campaign_id,),
        ).fetchall()

    def update_campaign(
        self,
        campaign_id: int,
        *,
        complete: bool | None = None,
        total_units: int | None = None,
        quarantined: list[str] | None = None,
        quarantine_reasons: dict[str, str] | None = None,
    ) -> None:
        """Manifest-equivalent update: completion flag, totals, and the
        authoritative quarantine set (stale rows from a previous attempt
        whose unit has since succeeded are removed)."""
        with self._transaction():
            sets, vals = ["updated_at = ?"], [time.time()]
            if complete is not None:
                sets.append("complete = ?")
                vals.append(int(complete))
            if total_units is not None:
                sets.append("total_units = ?")
                vals.append(total_units)
            self.conn.execute(
                f"UPDATE campaigns SET {', '.join(sets)} WHERE id = ?",
                (*vals, campaign_id),
            )
            if quarantined is not None:
                keep = sorted(set(quarantined))
                placeholders = ",".join("?" * len(keep)) or "''"
                self.conn.execute(
                    f"DELETE FROM quarantine WHERE campaign_id = ? "
                    f"AND unit_id NOT IN ({placeholders})",
                    (campaign_id, *keep),
                )
                reasons = quarantine_reasons or {}
                now = time.time()
                self.conn.executemany(
                    "INSERT OR IGNORE INTO quarantine "
                    "(campaign_id, unit_id, reason, recorded_at) "
                    "VALUES (?, ?, ?, ?)",
                    [(campaign_id, uid, reasons.get(uid, ""), now) for uid in keep],
                )


class _Transaction:
    """``BEGIN IMMEDIATE``/``COMMIT`` scope (rollback on exception)."""

    __slots__ = ("conn",)

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn

    def __enter__(self) -> sqlite3.Connection:
        if not self.conn.in_transaction:
            self.conn.execute("BEGIN IMMEDIATE")
        return self.conn

    def __exit__(self, exc_type, *exc) -> None:
        if self.conn.in_transaction:
            if exc_type is None:
                self.conn.execute("COMMIT")
            else:
                self.conn.execute("ROLLBACK")


class DBCheckpointStore:
    """The campaign engine's store: one campaign row of a
    :class:`CampaignDB` — what ``--db`` and ``--checkpoint-dir`` plug
    into the campaign engine.

    Lifecycle: ``load`` → ``record``\\* → ``write_manifest`` →
    ``close``.  A unit is committed atomically or not at all, many
    campaigns share one file, and resume is a query.  Extra hooks
    (:meth:`record_metrics`, :meth:`progress_sink`) feed the report
    builder's forensics and timeline sections.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        digest: str,
        *,
        campaign_info: dict[str, Any] | None = None,
        timeout: float = 30.0,
    ):
        self.db = CampaignDB(path, timeout=timeout)
        self.digest = digest
        self.campaign_info = dict(campaign_info or {})
        self.campaign_id: int | None = None
        self._quarantine_reasons: dict[str, str] = {}

    @property
    def path(self) -> Path:
        return self.db.path

    # -- engine interface ---------------------------------------------------

    def load(
        self, resume: bool
    ) -> dict[str, tuple[list[TestResult], MetricsRegistry | None]]:
        """Open the database and return previously completed units.

        ``resume=False`` drops any existing campaign with this digest and
        starts clean; ``resume=True`` returns its recorded units — there
        is no mismatch case, because the digest *is* the key.  Resuming
        a digest the file does not hold (a changed configuration) logs
        one WARNING and starts a new row.
        """
        self.db.open()
        if resume and self.db.campaign_id(self.digest) is None:
            logger.warning(
                "no campaign with digest %s in %s; starting fresh",
                self.digest[:12], self.path,
            )
        self.campaign_id = self.db.create_campaign(
            self.digest, fresh=not resume, **self.campaign_info
        )
        return self.db.load_units(self.campaign_id) if resume else {}

    def record(
        self,
        unit_id: str,
        tests: list[TestResult],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if self.campaign_id is None:
            raise RuntimeError("DBCheckpointStore.load() must be called before record()")
        self.db.record_unit(self.campaign_id, unit_id, tests, metrics)

    def write_manifest(
        self,
        total_units: int | None = None,
        complete: bool = False,
        quarantined: list[str] | None = None,
    ) -> None:
        if self.campaign_id is None:
            raise RuntimeError("DBCheckpointStore.load() must be called first")
        self.db.update_campaign(
            self.campaign_id,
            complete=complete,
            total_units=total_units,
            quarantined=quarantined,
            quarantine_reasons=self._quarantine_reasons,
        )

    @property
    def closed(self) -> bool:
        return self.db.closed

    def close(self) -> None:
        self.db.close()

    # -- store-only extensions --------------------------------------------

    def record_quarantine(self, unit_id: str, reason: str) -> None:
        """Attach the give-up reason to a quarantined unit (forensics —
        the unit itself stays unrecorded so a resume retries it)."""
        self._quarantine_reasons[unit_id] = reason
        if self.campaign_id is not None:
            self.db.record_quarantine(self.campaign_id, unit_id, reason)

    def record_point_tallies(self, tallies: list[tuple[Any, ...]]) -> None:
        if self.campaign_id is not None:
            self.db.record_point_tallies(self.campaign_id, tallies)

    def record_metrics(self, label: str, registry: MetricsRegistry) -> None:
        if self.campaign_id is not None:
            self.db.record_metrics(self.campaign_id, label, registry)

    def progress_sink(self) -> "DBProgressSink":
        if self.campaign_id is None:
            raise RuntimeError("DBCheckpointStore.load() must be called first")
        return DBProgressSink(self.db, self.campaign_id)


class DBProgressSink:
    """A :class:`~repro.obs.progress.ProgressSink` writing snapshots into
    the ``progress`` table — the report's campaign-timeline source."""

    def __init__(self, db: CampaignDB, campaign_id: int):
        self.db = db
        self.campaign_id = campaign_id

    def emit(self, snap: "ProgressSnapshot") -> None:
        if not self.db.closed:
            self.db.record_progress(self.campaign_id, snap)

    def close(self) -> None:  # the owning store manages the connection
        pass
