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
            ["run", "--static-prune", "--db", str(tmp_path / "c.sqlite")]
        ) == 2
        assert "--static-prune" in capsys.readouterr().err

    def test_static_prune_conflicts_with_checkpoint_dir(self, tmp_path, capsys):
        assert main(
            ["campaign", "--app", "is", "--static-prune",
             "--checkpoint-dir", str(tmp_path / "ck")]
        ) == 2
        assert "--static-prune" in capsys.readouterr().err


def test_campaign_static_prune_smoke(capsys):
    assert main(
        ["campaign", "--app", "is", "--tests", "3", "--max-points", "8",
         "--policy", "all", "--static-prune"]
    ) == 0
    out = capsys.readouterr().out
    assert "static prune:" in out
    assert "statically proven" in out
