"""The campaign report builder: SQLite store → static HTML tree.

``fastfit report --db campaigns.sqlite --out report/`` renders one
``index.html`` (campaign list + the focused campaign's full report) and
one ``campaign-<digest>.html`` per stored campaign.  Everything is
computed from the database — the builder never re-runs anything — so a
report can be (re)built long after the campaign machine is gone.

Per-campaign sections (each with a stable anchor for CI checks):

``summary``      configuration, outcome histogram, totals
``timeline``     progress telemetry (tests over time, throughput)
``heatmap``      per-point outcome heat map with error rates
``sensitivity``  error-rate level distributions (paper Figs. 8/11)
``breakdown``    outcomes by collective and by injected parameter
``steering``     adaptive-steering rounds and the accuracy-vs-budget curve
``forensics``    quarantined units, tool errors, deadlock wait-for graphs
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path

from ..analysis.sensitivity import PAPER_3_LEVELS, QUARTILE_LEVELS, LevelScheme
from ..injection.outcome import OUTCOME_ORDER, Outcome
from ..store.db import CampaignDB, CampaignStoreError
from .html import Raw, fraction_bar, heat_cell, nav, page, section, svg_timeline, table

SECTIONS = (
    ("summary", "Summary"),
    ("timeline", "Campaign timeline"),
    ("heatmap", "Per-point outcome heatmap"),
    ("sensitivity", "Sensitivity levels"),
    ("breakdown", "Outcome breakdown"),
    ("steering", "Adaptive steering"),
    ("forensics", "Forensics"),
)

#: Deadlock details rendered in full in the forensics section.
MAX_WAIT_FOR_SAMPLES = 10


def _point_rows(db: CampaignDB, campaign_id: int) -> list[dict]:
    """Per-point aggregate: identity, outcome counts, error rate."""
    points: dict[int, dict] = {}
    for row in db.point_tallies(campaign_id):
        entry = points.setdefault(
            row["point_index"],
            {
                "point_index": row["point_index"],
                "rank": row["rank"],
                "collective": row["collective"],
                "site": row["site"],
                "invocation": row["invocation"],
                "outcomes": {},
            },
        )
        entry["outcomes"][row["outcome"]] = row["n"]
    if not points:
        # Tallies are written at assembly; an interrupted campaign only
        # has raw results. Rebuild the same view from those.
        for row in db.conn.execute(
            "SELECT point_index, rank, collective, site, invocation, outcome,"
            " COUNT(*) AS n FROM results WHERE campaign_id = ?"
            " GROUP BY point_index, outcome ORDER BY point_index",
            (campaign_id,),
        ):
            entry = points.setdefault(
                row["point_index"],
                {
                    "point_index": row["point_index"],
                    "rank": row["rank"],
                    "collective": row["collective"],
                    "site": row["site"],
                    "invocation": row["invocation"],
                    "outcomes": {},
                },
            )
            entry["outcomes"][row["outcome"]] = row["n"]
    out = []
    for idx in sorted(points):
        entry = points[idx]
        counts = entry["outcomes"]
        responses = sum(
            n for o, n in counts.items() if o != Outcome.TOOL_ERROR.name
        )
        errors = sum(
            n
            for o, n in counts.items()
            if o not in (Outcome.SUCCESS.name, Outcome.TOOL_ERROR.name)
        )
        entry["error_rate"] = errors / responses if responses else 0.0
        out.append(entry)
    return out


def _summary_section(db: CampaignDB, c: sqlite3.Row) -> str:
    hist = db.outcome_histogram(c["id"])
    total = sum(hist.values())
    n_quarantined = len(db.quarantine_records(c["id"]))
    status = (
        '<span class="ok">complete</span>'
        if c["complete"]
        else '<span class="bad">incomplete</span>'
    )
    config = table(
        ("key", "value"),
        [
            ("digest", c["digest"]),
            ("status", Raw(status)),
            ("app", c["app"]),
            ("ranks", c["nranks"]),
            ("seed", c["seed"]),
            ("tests / point", c["tests_per_point"]),
            ("param policy", c["param_policy"]),
            ("points", c["n_points"]),
            ("work units", c["total_units"]),
            ("recorded tests", total),
            ("quarantined units", n_quarantined),
            ("code version", c["code_version"]),
        ],
    )
    order = [o.name for o in OUTCOME_ORDER] + [Outcome.TOOL_ERROR.name]
    rows = [
        (name, hist.get(name, 0), fraction_bar(hist.get(name, 0) / total if total else 0.0))
        for name in order
        if name in hist or name in {o.name for o in OUTCOME_ORDER}
    ]
    histogram = table(("outcome", "tests", "fraction"), rows, numeric=(1,))
    return section(
        "summary", "Summary", config + histogram + _snapshot_engine_summary(db, c)
    )


def snapshot_engine_line(metrics: dict) -> str:
    """One line of snapshot-and-fork telemetry from a registry dict
    (empty when the engine served no test); also what ``fastfit stats``
    prints."""
    counters = metrics.get("counters", {})
    forks = counters.get("snapshot.forks", 0)
    overlapped = counters.get("snapshot.overlapped_forks", 0)
    replays = counters.get("snapshot.replayed_tests", 0)
    fallbacks = counters.get("snapshot.fallback_tests", 0)
    if not forks and not replays and not fallbacks:
        return ""
    hits = counters.get("snapshot.hits", 0)
    misses = counters.get("snapshot.misses", 0)
    gauges = metrics.get("gauges", {})
    nbytes = gauges.get("snapshot.bytes", 0)
    # Absent from campaigns stored before forks could overlap: one at a time.
    width = gauges.get("snapshot.width", 1)
    timers = metrics.get("timers", {})

    def timer(name: str, field: str) -> float:
        return timers.get(f"snapshot.{name}", {}).get(field, 0)

    return (
        f"snapshot engine: {forks} forked tests "
        f"({timer('fork_overhead_s', 'mean') * 1e3:.1f} ms fork overhead each, "
        f"{overlapped} of {forks} forks overlapped, "
        f"up to {width:.0f} {'child' if width == 1 else 'children'} in flight), "
        f"{replays} replayed in the park, their prefix cheaper than a fork "
        f"({timer('prefix_s', 'mean') * 1e3:.1f} ms mean prefix over "
        f"{timer('prefix_s', 'count')} parks), "
        f"{fallbacks} fallback replays, "
        f"{misses} fault-free runs from t=0, {hits} restored from a snapshot, "
        f"{nbytes / (1 << 20):.1f} MiB cached, "
        f"{timer('fastforward_s', 'total'):.3f}s fast-forwarding, "
        f"{timer('fork_s', 'total'):.3f}s in fork+reap"
    )


def _snapshot_engine_summary(db: CampaignDB, c: sqlite3.Row) -> str:
    """:func:`snapshot_engine_line` of the stored final metrics (empty
    when --no-snapshot or no final metrics were stored)."""
    line = snapshot_engine_line(db.metrics_snapshot(c["id"], "final") or {})
    return f'<p class="muted">{line}</p>' if line else ""


def _timeline_section(db: CampaignDB, c: sqlite3.Row) -> str:
    rows = db.progress_rows(c["id"])
    if not rows:
        return section(
            "timeline",
            "Campaign timeline",
            '<p class="muted">no progress telemetry recorded '
            "(run with --db to collect it live)</p>",
        )
    series = [(r["elapsed_s"], r["done_tests"]) for r in rows]
    chart = svg_timeline(series, label="completed tests over elapsed seconds")
    last = rows[-1]
    eta = "—" if last["eta_s"] is None else f"{last['eta_s']:.1f}s"
    stats = table(
        ("snapshot", "elapsed", "tests", "units", "tests/sec", "ETA",
         "workers", "deaths", "retries", "quarantined"),
        [
            (
                f"{last['seq']} (final)",
                f"{last['elapsed_s']:.1f}s",
                f"{last['done_tests']}/{last['total_tests']}",
                f"{last['done_units']}/{last['total_units']}",
                f"{last['tests_per_sec']:.1f}",
                eta,
                last["workers"],
                last["worker_deaths"],
                last["retries"],
                last["quarantined"],
            )
        ],
    )
    return section("timeline", "Campaign timeline", chart + stats)


def _heatmap_section(points: list[dict]) -> str:
    if not points:
        return section(
            "heatmap", "Per-point outcome heatmap",
            '<p class="muted">no per-point results recorded</p>',
        )
    order = [o.name for o in OUTCOME_ORDER]
    headers = ["point", "rank", "collective", "site", "inv"] + order + ["error rate"]
    rows = []
    for p in points:
        counts = p["outcomes"]
        total = sum(n for o, n in counts.items() if o != Outcome.TOOL_ERROR.name)
        cells: list[object] = [
            p["point_index"], p["rank"], p["collective"], p["site"], p["invocation"],
        ]
        for name in order:
            n = counts.get(name, 0)
            cells.append(heat_cell(n / total if total else 0.0, str(n)))
        cells.append(heat_cell(p["error_rate"]))
        rows.append(cells)
    return section(
        "heatmap",
        "Per-point outcome heatmap",
        table(headers, rows, numeric=(0, 1, 4)),
    )


def _sensitivity_section(points: list[dict]) -> str:
    rates = [p["error_rate"] for p in points]
    if not rates:
        return section(
            "sensitivity", "Sensitivity levels",
            '<p class="muted">no per-point error rates recorded</p>',
        )
    # Import here keeps module import light; level_distribution pulls numpy.
    from ..analysis.sensitivity import level_distribution

    def level_table(scheme: LevelScheme, caption: str) -> str:
        dist = level_distribution(rates, scheme)
        rows = [(name, fraction_bar(frac)) for name, frac in dist.items()]
        return f"<h3>{caption}</h3>" + table(("level", "fraction of points"), rows)

    body = level_table(
        PAPER_3_LEVELS, "Three levels (paper Figs. 8/11: low ≤ 15%, high ≥ 85%)"
    ) + level_table(QUARTILE_LEVELS, "Quartile levels (prediction model)")
    return section("sensitivity", "Sensitivity levels", body)


def _breakdown_section(db: CampaignDB, c: sqlite3.Row) -> str:
    order = [o.name for o in OUTCOME_ORDER]

    def matrix(group_col: str, label: str) -> str:
        data: dict[str, dict[str, int]] = {}
        for row in db.conn.execute(
            f"SELECT {group_col} AS g, outcome, COUNT(*) AS n FROM results "
            "WHERE campaign_id = ? GROUP BY g, outcome ORDER BY g",
            (c["id"],),
        ):
            data.setdefault(row["g"], {})[row["outcome"]] = row["n"]
        if not data:
            return f'<h3>{label}</h3><p class="muted">no results</p>'
        rows = []
        for g, counts in sorted(data.items()):
            total = sum(n for o, n in counts.items() if o != Outcome.TOOL_ERROR.name)
            cells: list[object] = [g]
            for name in order:
                n = counts.get(name, 0)
                cells.append(heat_cell(n / total if total else 0.0, str(n)))
            rows.append(cells)
        return f"<h3>{label}</h3>" + table([label.lower()] + order, rows)

    body = (
        matrix("collective", "By collective")
        + matrix("param", "By injected parameter")
        + matrix("model", "By fault model")
    )
    return section("breakdown", "Outcome breakdown", body)


def _steering_section(db: CampaignDB, c: sqlite3.Row) -> str:
    rows = db.steering_rounds(c["id"])
    if not rows:
        return section(
            "steering", "Adaptive steering",
            '<p class="muted">not a learning-loop campaign '
            "(run learn --db or campaign --adaptive --db to record "
            "steering rounds)</p>",
        )
    curve = [
        (r["budget_used"], r["accuracy"])
        for r in rows
        if r["accuracy"] is not None
    ]
    chart = (
        svg_timeline(curve, label="verification accuracy over injected tests")
        if len(curve) >= 2
        else ""
    )
    body_rows = []
    for r in rows:
        body_rows.append(
            (
                r["round"],
                r["n_points"],
                r["tests_run"],
                r["tests_saved"],
                r["budget_used"],
                "—" if r["accuracy"] is None else f"{r['accuracy']:.0%}",
                "—"
                if r["mean_uncertainty"] is None
                else f"{r['mean_uncertainty']:.3f}",
                r["stop_reason"] or "—",
            )
        )
    rounds = table(
        ("round", "points", "tests", "saved", "budget used", "accuracy",
         "mean uncertainty", "stop reason"),
        body_rows,
        numeric=(0, 1, 2, 3, 4),
    )
    return section("steering", "Adaptive steering", chart + rounds)


def _forensics_section(db: CampaignDB, c: sqlite3.Row) -> str:
    parts = []
    quarantined = db.quarantine_records(c["id"])
    if quarantined:
        parts.append(
            "<h3>Quarantined units</h3>"
            + table(
                ("unit", "reason"),
                [(q["unit_id"], q["reason"] or "—") for q in quarantined],
            )
        )
    else:
        parts.append('<h3>Quarantined units</h3><p class="muted ok">none</p>')

    metrics = db.metrics_snapshot(c["id"], "final")
    if metrics:
        counters = metrics.get("counters", {})
        interesting = {
            k: v
            for k, v in counters.items()
            if k.startswith("exec.") or k == "campaign.tests"
        }
        if interesting:
            parts.append(
                "<h3>Supervision counters</h3>"
                + table(("counter", "value"), sorted(interesting.items()), numeric=(1,))
            )

    hangs = db.conn.execute(
        "SELECT point_index, test_index, detail FROM results "
        "WHERE campaign_id = ? AND outcome = ? AND detail != '' "
        "ORDER BY point_index, test_index LIMIT ?",
        (c["id"], Outcome.INF_LOOP.name, MAX_WAIT_FOR_SAMPLES),
    ).fetchall()
    if hangs:
        n_hangs = db.outcome_histogram(c["id"]).get(Outcome.INF_LOOP.name, 0)
        blocks = "\n".join(
            f"<h4>point {h['point_index']}, test {h['test_index']}</h4>"
            f"<pre>{_pre(h['detail'])}</pre>"
            for h in hangs
        )
        parts.append(
            f"<h3>Deadlock wait-for graphs ({min(n_hangs, MAX_WAIT_FOR_SAMPLES)} "
            f"of {n_hangs} INF_LOOP tests)</h3>" + blocks
        )
    else:
        parts.append(
            '<h3>Deadlock wait-for graphs</h3><p class="muted">no INF_LOOP tests</p>'
        )
    return section("forensics", "Forensics", "".join(parts))


def _pre(detail: str) -> str:
    from html import escape

    # Details pack wait-for edges on one line; break on the separators
    # forensics uses so graphs read as one edge per line.
    return escape(detail).replace("; ", ";\n")


def _campaign_body(db: CampaignDB, c: sqlite3.Row) -> str:
    points = _point_rows(db, c["id"])
    return (
        nav(SECTIONS)
        + _summary_section(db, c)
        + _timeline_section(db, c)
        + _heatmap_section(points)
        + _sensitivity_section(points)
        + _breakdown_section(db, c)
        + _steering_section(db, c)
        + _forensics_section(db, c)
    )


def _campaign_filename(digest: str) -> str:
    return f"campaign-{digest[:12]}.html"


def build_report(
    db_path: str | os.PathLike,
    out_dir: str | os.PathLike,
    digest: str | None = None,
) -> Path:
    """Render the report tree; returns the ``index.html`` path.

    ``digest`` (full or prefix) focuses the index page on one campaign;
    default is the most recently updated one.  Every stored campaign
    additionally gets its own page.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with CampaignDB(db_path) as db:
        campaigns = db.campaigns()
        if not campaigns:
            raise CampaignStoreError(f"no campaigns stored in {db.path}")
        focus = db.campaign(digest)
        if focus is None:
            raise CampaignStoreError(
                f"no campaign matching digest {digest!r} in {db.path}"
            )

        listing_rows = []
        for c in campaigns:
            hist = db.outcome_histogram(c["id"])
            listing_rows.append(
                (
                    Raw(
                        f'<a href="{_campaign_filename(c["digest"])}">'
                        f'<code>{c["digest"][:12]}</code></a>'
                    ),
                    c["app"],
                    c["n_points"],
                    c["tests_per_point"],
                    sum(hist.values()),
                    "yes" if c["complete"] else "no",
                )
            )
        listing = section(
            "campaigns",
            "Stored campaigns",
            table(
                ("campaign", "app", "points", "tests/point", "recorded tests",
                 "complete"),
                listing_rows,
                numeric=(2, 3, 4),
            ),
        )

        for c in campaigns:
            doc = page(
                f"FastFIT campaign {c['digest'][:12]} — {c['app']}",
                _campaign_body(db, c),
            )
            (out / _campaign_filename(c["digest"])).write_text(doc, encoding="utf-8")

        index = page(
            f"FastFIT campaign report — {focus['app']} {focus['digest'][:12]}",
            listing + _campaign_body(db, focus),
        )
        index_path = out / "index.html"
        index_path.write_text(index, encoding="utf-8")
    return index_path
