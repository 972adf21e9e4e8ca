"""CLI contract for ``fastfit analyze`` and ``--static-prune``:
exit 0 = clean, 1 = findings, 2 = operator error."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_analyze_clean_app_exits_zero(capsys):
    assert main(["analyze", "--app", "is", "--tests", "3"]) == 0
    out = capsys.readouterr().out
    assert "collective-matching check" in out
    assert "lint: clean" in out
    assert "statically proven" in out


def test_analyze_with_crossval_sample(capsys):
    assert main(
        ["analyze", "--app", "is", "--tests", "3", "--sample", "0.25"]
    ) == 0
    out = capsys.readouterr().out
    assert "cross-validation" in out
    assert "mismatches: 0" in out


def test_analyze_json_summary(capsys):
    assert main(["analyze", "--app", "is", "--tests", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["matching"]["ok"] is True
    assert data["preclassify"]["n_predicted"] > 0


def test_analyze_crossval_json_has_zero_mismatches(capsys):
    """Every predicted test of IS at 6 tests per point, re-run live."""
    assert main(
        ["analyze", "--app", "is", "--tests", "6", "--sample", "1.0", "--json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"], data
    cv = data["crossval"]
    assert cv["n_predicted"] > 0, cv
    assert cv["n_checked"] > 0, cv
    assert cv["mismatches"] == [], cv["mismatches"]


@pytest.mark.parametrize("sample", [[], ["--sample", "0.5"]], ids=["static", "sample"])
def test_analyze_named_policy_covers_its_slice(sample, capsys):
    """``--policy root`` classifies the points whose collective has a
    ``root`` (IS's Bcasts), not every point of the space."""
    assert main(["analyze", "--app", "is", "--policy", "root", "--tests", "2",
                 "--json", *sample]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    data = json.loads(captured.out)
    summary = data["crossval" if sample else "preclassify"]
    assert data["ok"] and summary["n_tests"] == 8
    assert set(summary["rules"]) == {"root-out-of-range"}


def test_analyze_lint_only(capsys):
    assert main(["analyze", "--lint-only"]) == 0
    assert "lint: clean" in capsys.readouterr().out


class TestOperatorErrors:
    """Misuse is one stderr line and exit 2, never a traceback."""

    def test_unknown_app(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--app", "nosuch"])
        assert exc.value.code == 2

    def test_unknown_mutant(self, capsys):
        """Skeleton mutants run through ``fastfit verify --mutant``."""
        assert main(["verify", "--mutant", "nosuch"]) == 2
        assert "unknown mutant" in capsys.readouterr().err

    def test_missing_app(self, capsys):
        assert main(["analyze"]) == 2
        assert "requires --app" in capsys.readouterr().err

    @pytest.mark.parametrize("sample", ["0", "-0.5", "1.5"])
    def test_bad_sample(self, sample, capsys):
        assert main(["analyze", "--app", "is", "--sample", sample]) == 2
        assert "--sample" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--policy", "nosuch"],
             "--policy 'nosuch' is not 'buffer', 'all', or a parameter of any collective"),
            (["--seed", "-3"], "--seed must be >= 0, got -3"),
            (["--tests", "-1"], "--tests must be >= 1, got -1"),
            # A zero-test analysis proves nothing ("0/0 tests").
            (["--tests", "0"], "--tests must be >= 1, got 0"),
        ],
    )
    def test_bad_option_is_one_line(self, flags, message, capsys):
        assert main(["analyze", "--app", "is", *flags]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_sample_conflicts_with_lint_only(self, capsys):
        assert main(["analyze", "--lint-only", "--sample", "0.5"]) == 2
        assert "--sample" in capsys.readouterr().err

    def test_static_prune_conflicts_with_jobs(self, capsys):
        assert main(
            ["campaign", "--app", "is", "--static-prune", "--jobs", "2"]
        ) == 2
        assert "--static-prune" in capsys.readouterr().err

    def test_static_prune_conflicts_with_db(self, tmp_path, capsys):
        assert main(
            ["campaign", "--app", "is", "--static-prune", "--db", str(tmp_path / "c.sqlite")]
        ) == 2
        assert "--static-prune" in capsys.readouterr().err


def test_analyze_dirty_app_reports_the_mismatch(monkeypatch, capsys):
    """An app whose ranks disagree on the collective order fails its
    golden run: analyze prints the run's error and the checker's
    report over the calls recorded before it, and exits 1."""
    from repro.apps.registry import APPLICATIONS
    from tests.analyze.test_skeleton import DisagreeApp

    monkeypatch.setitem(APPLICATIONS, "disagree", DisagreeApp)
    assert main(["analyze", "--app", "disagree"]) == 1
    out = capsys.readouterr().out
    assert "golden run of 'disagree' failed: MPI_ERR_TRUNCATE" in out
    assert "order_mismatch" in out
    assert "Barrier@" in out and "Allreduce@" in out

    assert main(["analyze", "--app", "disagree", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["golden_run"].startswith("MPI_ERR_TRUNCATE")
    assert [f["rule"] for f in data["matching"]["findings"]] == ["order_mismatch"]
    assert "preclassify" not in data


def test_campaign_static_prune_smoke(capsys):
    assert main(
        ["campaign", "--app", "is", "--tests", "3", "--max-points", "8",
         "--policy", "all", "--static-prune"]
    ) == 0
    out = capsys.readouterr().out
    assert "static prune:" in out
    assert "statically proven" in out
