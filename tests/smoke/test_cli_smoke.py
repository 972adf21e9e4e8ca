"""Campaign-level smokes through the CLI: worker crashes under chaos,
the fork-equivalence report, a timeline-scenario campaign and the
adaptive campaign surface."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke

IS_T = ["--app", "is", "--problem-class", "T"]


def test_chaos_worker_crashes_are_retried_and_the_campaign_completes(
    tmp_path, monkeypatch, capsys
):
    """Whole-point units (snapshot serving, the default) carry all of a
    point's tests in one unit ``p<i>:t0-<tests>``; the first dispatch of
    units 0 and 2 kills its worker, and the retries heal both."""
    monkeypatch.setenv("FASTFIT_CHAOS_MODE", "exit")
    monkeypatch.setenv("FASTFIT_CHAOS_UNITS", "p0:t0-4,p2:t0-4")
    monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "1")
    db = tmp_path / "chaos.db"
    assert main(["campaign", *IS_T, "--tests", "4", "--max-points", "4", "--jobs", "2",
                 "--db", str(db)]) == 0
    capsys.readouterr()
    assert main(["stats", "--db", str(db), "--json"]) == 0
    counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
    assert counters.get("exec.retries", 0) > 0, counters
    assert counters.get("exec.worker_deaths", 0) > 0, counters
    assert counters.get("exec.quarantined", 0) == 0, counters
    assert counters["campaign.tests"] == 16, counters


def test_forked_tests_equal_scratch_bit_for_bit(capsys):
    code = main(["verify", "--draws", "10", "--skip-sanitize", "--skip-replay",
                 "--skip-campaign", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"], report
    snap = report["phases"]["snapshot"]
    assert snap["identical"], snap
    assert snap["mismatches"] == [], snap


def test_timeline_scenario_drop_starves_the_bcast(tmp_path, capsys):
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({
        "version": 1, "name": "ci-drop", "tasks": [{"t": 0, "model": "msg_drop", "rank": 0}],
    }))
    assert main(["campaign", *IS_T, "--tests", "4", "--scenario", str(scenario)]) == 0
    assert "INF_LOOP" in capsys.readouterr().out


def test_adaptive_campaign_surface(capsys):
    assert main(["campaign", "--app", "lu", "--problem-class", "T", "--tests", "8",
                 "--max-points", "8", "--adaptive", "--batch-size", "4", "--ci-width", "0.3",
                 "--jobs", "4"]) == 0
    assert "round" in capsys.readouterr().out
