"""HTML report builder: sections, anchors, and content checks."""

import pytest

from repro.injection import Campaign, enumerate_points
from repro.obs.metrics import MetricsRegistry
from repro.report import SECTIONS, build_report
from repro.snapshot.engine import cpu_count
from repro.store import CampaignDB, CampaignStoreError


@pytest.fixture(scope="module")
def campaign_db(tmp_path_factory, lu_app, lu_profile):
    """A small completed DB-backed campaign (with progress telemetry)."""
    db_path = tmp_path_factory.mktemp("report") / "c.sqlite"
    points = enumerate_points(lu_profile)[:5]
    result = Campaign(
        lu_app, lu_profile, tests_per_point=5, param_policy="all", seed=17,
        db_path=db_path, metrics=MetricsRegistry(),
    ).run(points)
    return db_path, result


@pytest.fixture(scope="module")
def report(campaign_db, tmp_path_factory):
    db_path, result = campaign_db
    out = tmp_path_factory.mktemp("report_out")
    index = build_report(db_path, out)
    return index, index.read_text(), result


def test_index_written(report):
    index, html, _ = report
    assert index.name == "index.html"
    assert html.lstrip().startswith("<!DOCTYPE html>")


def test_all_section_anchors_present(report):
    _, html, _ = report
    for anchor, title in SECTIONS:
        assert f'id="{anchor}"' in html, f"missing section {anchor}"
        assert title in html


def test_per_campaign_page_written(report, campaign_db):
    index, _, _ = report
    pages = list(index.parent.glob("campaign-*.html"))
    assert len(pages) == 1
    with CampaignDB(campaign_db[0]) as db:
        digest = db.campaign()["digest"]
    assert pages[0].name == f"campaign-{digest[:12]}.html"


def test_summary_reflects_campaign_config(report):
    _, html, result = report
    assert "lu" in html
    total = len(result.all_tests())
    assert str(total) in html


def test_summary_carries_snapshot_engine_line(report, campaign_db):
    _, html, result = report
    with CampaignDB(campaign_db[0]) as db:
        final = db.metrics_snapshot(db.campaign()["id"], "final")
    counters = final["counters"]
    forks, replays = counters["snapshot.forks"], counters.get("snapshot.replayed_tests", 0)
    # One executor (jobs=1) overlaps up to one forked child per core.
    assert final["gauges"]["snapshot.width"] == cpu_count()
    assert f"up to {cpu_count()} child" in html and " in flight)" in html
    assert forks + replays == len(result.all_tests())
    # Chosen replays are told apart from tests the fork path could not serve.
    assert f"{forks} forked tests" in html and "ms fork overhead each" in html
    # Forks made while a sibling was in flight, out of all forks.
    overlapped = counters.get("snapshot.overlapped_forks", 0)
    assert f"{overlapped} of {forks} forks overlapped, up to" in html
    assert overlapped <= max(0, forks - 1)
    assert f"{replays} replayed in the park" in html and "0 fallback replays" in html
    assert "ms mean prefix over 5 parks" in html
    assert "s in fork+reap" in html


def test_heatmap_has_every_point_row(report):
    _, html, result = report
    for point in result.points:
        assert point.collective in html
    # heat cells carry the white->red inline background
    assert html.count("rgb(255,") >= len(result.points)


def test_outcome_breakdown_lists_outcomes(report):
    _, html, result = report
    seen = {t.outcome.name for t in result.all_tests()}
    for name in seen:
        assert name in html


def test_timeline_present_for_db_backed_run(report):
    """The DB progress sink fed snapshots, so the timeline has an SVG."""
    _, html, _ = report
    assert "<svg" in html
    assert "tests/sec" in html


def test_sensitivity_levels_rendered(report):
    _, html, _ = report
    assert "low" in html and "high" in html


def test_report_on_empty_db_is_store_error(tmp_path):
    db_path = tmp_path / "empty.sqlite"
    CampaignDB(db_path).open().close()
    with pytest.raises(CampaignStoreError):
        build_report(db_path, tmp_path / "out")


def test_report_unknown_digest_is_store_error(campaign_db, tmp_path):
    with pytest.raises(CampaignStoreError):
        build_report(campaign_db[0], tmp_path / "out", digest="0123456789ab")


def test_html_escapes_untrusted_text(tmp_path, lu_app, lu_profile):
    """Detail strings flow into the page; markup in them must not."""
    from repro.report.html import esc, table

    assert esc("<script>alert(1)</script>") == (
        "&lt;script&gt;alert(1)&lt;/script&gt;"
    )
    out = table(["a"], [["<b>raw</b>"]])
    assert "<b>" not in out


def test_stored_view_matches_the_in_memory_result(tmp_path, lu_app, capsys):
    """One ``jobs=2`` campaign into a database: the report's per-point
    rows and ``stats --db --json``'s outcomes are the returned
    :class:`CampaignResult`'s, point by point."""
    import json

    from repro import FastFIT
    from repro.cli import main
    from repro.injection import OUTCOME_ORDER
    from repro.report.builder import _point_rows

    db = tmp_path / "c.sqlite"
    ff = FastFIT(lu_app, tests_per_point=3, max_points=4, param_policy="all", db_path=db, jobs=2)
    points = ff.points()
    result = ff.campaign(points=points)
    with CampaignDB(db) as cdb:
        rows = _point_rows(cdb, cdb.campaign()["id"])
    assert [
        (r["point_index"], r["rank"], r["collective"], r["site"], r["invocation"]) for r in rows
    ] == [(i, p.rank, p.collective, p.site, p.invocation) for i, p in enumerate(points)]
    for row, pr in zip(rows, result.points.values()):
        assert row["outcomes"] == pr.outcomes
        assert row["error_rate"] == pr.error_rate

    capsys.readouterr()
    assert main(["stats", "--db", str(db), "--json"]) == 0
    stored = json.loads(capsys.readouterr().out)["outcomes"]
    stored.pop("TOOL_ERROR", None)
    assert {o: stored.get(o.name, 0) for o in OUTCOME_ORDER} == result.outcome_histogram()
