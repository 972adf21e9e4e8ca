"""The campaign database schema.

One SQLite file holds any number of campaigns, keyed by the existing
:func:`~repro.exec.checkpoint.campaign_digest`, so ``--resume`` is an
identity check spelled as a query.

Tables
------
``campaigns``
    One row per campaign digest: the configuration axes the digest was
    computed over (app, ranks, seed, tests/point, policy, unit layout),
    progress totals, and the completion flag.
``units``
    One row per *completed* work unit: its test range and its worker
    ``MetricsRegistry`` snapshot as ``to_dict()`` JSON.
``results``
    One row per injection test, its only copy: queryable with plain SQL
    (``select outcome, count(*) from results group by outcome``), and
    what resume rebuilds each ``TestResult`` from (the spec is redrawn
    from the test's coordinates).  The record's own ``fault_*`` columns
    say where it struck: a scenario strikes away from its anchor.
``point_tallies``
    A per-point outcome histogram no reader uses: the campaign engine
    stopped writing it, and every view is computed from ``results``
    (:meth:`~repro.store.db.CampaignDB.tally`).  The table and its
    writer stay for the benchmark harness, whose traced store pass
    (``perf/workloads.py``) still calls ``record_point_tallies``.
``quarantine``
    Units the supervisor gave up on, with the give-up reason.  Their
    tests are synthetic ``TOOL_ERROR`` verdicts and are deliberately
    *not* in ``units``, so a resumed campaign retries them.
``metrics_snapshots``
    Labelled JSON dumps of a :class:`~repro.obs.metrics.MetricsRegistry`
    (the ``final`` snapshot carries phase timings and supervision
    counters).
``progress``
    Live telemetry snapshots from the supervisor loop (tests/sec,
    outcome histogram, worker health, ETA) — the report's campaign
    timeline.
``steering_rounds``
    One row per adaptive-steering round (see :mod:`repro.steer`): which
    points the round injected, the test budget it planned versus spent,
    the verification accuracy measured on the round's fresh batch, and
    why the driver eventually stopped.  The report's accuracy-vs-budget
    curve reads straight off this table.

Durability model: the connection runs in WAL mode and every
``record()`` is one transaction, so a unit is either fully present
(its row *and* all its result rows) or absent.  A process killed
mid-write simply loses the uncommitted transaction; everything previously committed survives.
"""

from __future__ import annotations

#: Bump when the DDL below changes incompatibly; stored in ``schema_meta``.
#: v2 added ``results.model`` (the fault-model name per test); v3 added
#: the ``steering_rounds`` table; v4 moved the injection record into
#: ``results`` and the unit metrics into JSON (``units.payload`` gone).
#: Older databases are migrated in place on open, one version at a time
#: (see ``CampaignDB.open``).
SCHEMA_VERSION = 4

#: The ``results`` columns of a test's injection record (added in v4),
#: in :class:`~repro.injection.injector.InjectionRecord` field order.
#: ``kind`` is NULL when no fault struck.
RECORD_COLUMNS = (
    ("fault_param", "TEXT"), ("kind", "TEXT"), ("fault_bit", "INTEGER"),
    ("extent_bytes", "INTEGER"), ("skipped", "INTEGER"), ("fault_collective", "TEXT"),
    ("fault_site", "TEXT"), ("fault_invocation", "INTEGER"), ("before", "TEXT"), ("after", "TEXT"),
)

SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS campaigns (
    id              INTEGER PRIMARY KEY,
    digest          TEXT NOT NULL UNIQUE,
    app             TEXT,
    nranks          INTEGER,
    seed            INTEGER,
    tests_per_point INTEGER,
    param_policy    TEXT,
    unit_tests      INTEGER,
    algorithms      TEXT,            -- JSON object, '{}' when default
    code_version    TEXT,
    n_points        INTEGER,
    total_units     INTEGER,
    complete        INTEGER NOT NULL DEFAULT 0,
    created_at      REAL NOT NULL,
    updated_at      REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS units (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    unit_id     TEXT NOT NULL,
    point_index INTEGER NOT NULL,
    test_start  INTEGER NOT NULL,
    test_stop   INTEGER NOT NULL,
    n_tests     INTEGER NOT NULL,
    recorded_at REAL NOT NULL,
    metrics     TEXT,                -- MetricsRegistry.to_dict() as JSON
    PRIMARY KEY (campaign_id, unit_id)
);

CREATE TABLE IF NOT EXISTS results (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    unit_id     TEXT NOT NULL,
    point_index INTEGER NOT NULL,
    test_index  INTEGER NOT NULL,
    rank        INTEGER NOT NULL,
    collective  TEXT NOT NULL,
    site        TEXT NOT NULL,
    invocation  INTEGER NOT NULL,
    param       TEXT NOT NULL,
    bit         INTEGER,             -- flipped bit (NULL: no fault fired)
    model       TEXT NOT NULL DEFAULT 'bitflip',
    outcome     TEXT NOT NULL,
    injected    INTEGER NOT NULL,
    detail      TEXT NOT NULL DEFAULT '',
""" + "".join(f"    {name} {kind},\n" for name, kind in RECORD_COLUMNS) + """\
    PRIMARY KEY (campaign_id, point_index, test_index)
);
CREATE INDEX IF NOT EXISTS idx_results_outcome
    ON results (campaign_id, outcome);
CREATE INDEX IF NOT EXISTS idx_results_collective
    ON results (campaign_id, collective);

CREATE TABLE IF NOT EXISTS point_tallies (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    point_index INTEGER NOT NULL,
    rank        INTEGER NOT NULL,
    collective  TEXT NOT NULL,
    site        TEXT NOT NULL,
    invocation  INTEGER NOT NULL,
    outcome     TEXT NOT NULL,
    n           INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, point_index, outcome)
);

CREATE TABLE IF NOT EXISTS quarantine (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    unit_id     TEXT NOT NULL,
    reason      TEXT NOT NULL DEFAULT '',
    recorded_at REAL NOT NULL,
    PRIMARY KEY (campaign_id, unit_id)
);

CREATE TABLE IF NOT EXISTS metrics_snapshots (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    label       TEXT NOT NULL,
    payload     TEXT NOT NULL,       -- MetricsRegistry.to_dict() as JSON
    recorded_at REAL NOT NULL,
    PRIMARY KEY (campaign_id, label)
);

CREATE TABLE IF NOT EXISTS progress (
    campaign_id   INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    seq           INTEGER NOT NULL,
    ts            REAL NOT NULL,
    elapsed_s     REAL NOT NULL,
    done_tests    INTEGER NOT NULL,
    total_tests   INTEGER NOT NULL,
    done_units    INTEGER NOT NULL,
    total_units   INTEGER NOT NULL,
    tests_per_sec REAL NOT NULL,
    eta_s         REAL,
    outcomes      TEXT NOT NULL,     -- JSON {outcome: count}
    workers       INTEGER NOT NULL,
    worker_deaths INTEGER NOT NULL,
    retries       INTEGER NOT NULL,
    quarantined   INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, seq)
);

CREATE TABLE IF NOT EXISTS steering_rounds (
    campaign_id      INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    round            INTEGER NOT NULL,
    point_indices    TEXT NOT NULL,   -- JSON list of global point indices
    n_points         INTEGER NOT NULL,
    tests_planned    INTEGER NOT NULL,
    tests_run        INTEGER NOT NULL,
    tests_saved      INTEGER NOT NULL,
    budget_used      INTEGER NOT NULL, -- cumulative tests through this round
    accuracy         REAL,            -- verification accuracy (NULL: round 0)
    mean_uncertainty REAL,            -- mean acquisition score (NULL: round 0)
    stop_reason      TEXT NOT NULL DEFAULT '',
    recorded_at      REAL NOT NULL,
    PRIMARY KEY (campaign_id, round)
);
"""
