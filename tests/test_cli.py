"""CLI tests (the ``fastfit`` entry point)."""

import json
import re

import pytest

from repro.cli import build_parser, main


def test_apps_lists_all_workloads(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("is", "ft", "mg", "lu", "lammps"):
        assert name in out
    assert "class" in out


def test_profile_command(capsys):
    assert main(["profile", "--app", "lu", "--problem-class", "T"]) == 0
    out = capsys.readouterr().out
    assert "injection points" in out
    assert "collective mix" in out
    assert "Allreduce" in out


def test_prune_command(capsys):
    assert main(["prune", "--app", "ft", "--problem-class", "T"]) == 0
    out = capsys.readouterr().out
    assert "MPI (semantic)" in out
    assert "%" in out


def test_campaign_command(capsys):
    assert (
        main(
            [
                "campaign",
                "--app",
                "lu",
                "--problem-class",
                "T",
                "--tests",
                "3",
                "--max-points",
                "4",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "response types" in out
    assert "SUCCESS" in out
    assert "error-rate levels" in out


def test_learn_command(capsys):
    assert (
        main(
            [
                "learn",
                "--app",
                "lu",
                "--problem-class",
                "T",
                "--tests",
                "3",
                "--threshold",
                "0.3",
                "--batch-size",
                "4",
                "--policy",
                "all",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "tested" in out and "predicted" in out


def test_learn_caps_points(capsys):
    """``learn`` tests at most ``--max-points`` representatives."""
    assert main(["learn", "--app", "lu", "--tests", "2", "--max-points", "3", "--threshold", "1"]) == 0
    out = capsys.readouterr().out
    tested = int(re.search(r"tested (\d+) points", out).group(1))
    assert 0 < tested <= 3
    assert "over 3 candidate points" in out


def test_study_command_no_ml(capsys):
    assert (
        main(
            [
                "study",
                "--app",
                "mg",
                "--problem-class",
                "T",
                "--tests",
                "2",
                "--max-points",
                "4",
                "--no-ml",
                "--policy",
                "buffer",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Total" in out
    assert "NA" in out


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["profile", "--app", "hpl"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("apps", "profile", "prune", "campaign", "learn", "study", "trace", "stats"):
        assert cmd in text


def test_verbosity_flags_accepted_everywhere():
    parser = build_parser()
    for argv in (["apps", "-v"], ["apps", "-q"], ["apps", "-vv"]):
        args = parser.parse_args(argv)
        assert args.command == "apps"


def test_trace_smoke(capsys):
    assert (
        main(
            ["trace", "--app", "lu", "--problem-class", "T", "--point", "0", "--limit", "20"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "outcome:" in out
    assert "coll_enter" in out or "send" in out


def test_trace_json_is_valid_jsonl(capsys):
    assert (
        main(
            ["trace", "--app", "lu", "--problem-class", "T", "--point", "0", "--json"]
        )
        == 0
    )
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    records = [json.loads(ln) for ln in lines]
    types = {r.get("type") for r in records}
    assert "meta" in types and "event" in types and "result" in types
    events = [r for r in records if r.get("type") == "event"]
    assert events and all("seq" in e and "kind" in e and "rank" in e for e in events)


def test_trace_inf_loop_prints_wait_for_graph(capsys):
    """Pinned deterministic INF_LOOP: lu/T representative #20, test 7
    (seed 2015) corrupts Bcast's root on rank 3 and hangs the job."""
    assert (
        main(
            [
                "trace",
                "--app", "lu",
                "--problem-class", "T",
                "--point", "20",
                "--policy", "all",
                "--test", "7",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "INF_LOOP" in out
    assert "wait-for graph" in out
    assert "waits on recv(comm=" in out
    assert "tag" in out


def test_trace_point_out_of_range():
    assert (
        main(["trace", "--app", "lu", "--problem-class", "T", "--point", "9999"]) == 2
    )


def test_trace_rejects_unknown_param(capsys):
    assert (
        main(
            ["trace", "--app", "lu", "--problem-class", "T", "--point", "0",
             "--param", "notaparam"]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "notaparam" in err and "sendbuf" in err


def test_stats_smoke(capsys):
    assert (
        main(
            [
                "stats",
                "--app", "is",
                "--problem-class", "T",
                "--tests", "2",
                "--max-points", "4",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "phase" in out
    assert "tests/sec" in out
    assert "SUCCESS" in out


def test_stats_json_export(capsys):
    assert (
        main(
            [
                "stats",
                "--app", "is",
                "--problem-class", "T",
                "--tests", "2",
                "--max-points", "4",
                "--json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["counters"]["campaign.tests"] > 0
    assert "phase.campaign_s" in data["timers"]


class TestErrorHygiene:
    """Operator errors exit with code 2 and one line on stderr — no
    tracebacks, no partial output."""

    def test_resume_without_checkpoint_dir(self, capsys):
        assert main(["campaign", "--app", "lu", "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_bad_jobs(self, capsys):
        assert main(["campaign", "--app", "lu", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_bad_unit_timeout(self, capsys):
        assert main(["campaign", "--app", "lu", "--unit-timeout", "0"]) == 2
        assert "--unit-timeout must be > 0" in capsys.readouterr().err

    def test_bad_max_retries(self, capsys):
        assert main(["campaign", "--app", "lu", "--max-retries", "-1"]) == 2
        assert "--max-retries must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tests", "-2"], "--tests must be >= 0, got -2"),
            (["--seed", "-1"], "--seed must be >= 0, got -1"),
            (["--policy", "bogus"], "--policy 'bogus' is not 'buffer', 'all', or a parameter"),
        ],
    )
    def test_bad_campaign_option_is_one_line(self, flags, message, capsys):
        """Values the campaign config rejects exit 2 before any work,
        instead of a traceback from deep inside the first test."""
        assert main(["campaign", "--app", "is", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--draws", "0"], "--draws must be >= 1, got 0"),
            (["--tests", "0"], "--tests must be >= 1, got 0"),
            (["--max-points", "0"], "--max-points must be >= 1, got 0"),
            (["--seed", "-1"], "--seed must be >= 0, got -1"),
            (["--collective", "Nosuch"], "unknown collective 'Nosuch'"),
            (["--mutant", "ring_wrong_block", "--draws", "0"], "--draws must be >= 1"),
            (["--mutant", "snapshot_rng_desync", "--tests", "0"], "--tests must be >= 1"),
            (["--mutant", "ring_wrong_block", "--collective", "Bcast"],
             "--collective does not apply with --mutant"),
            (["--mutant", "nosuch"], "unknown mutant 'nosuch'"),
        ],
    )
    def test_bad_verify_input_is_one_line(self, flags, message, capsys):
        """Inputs that would make a verify check vacuous (zero draws,
        tests or points) or crash it exit 2 before any check runs."""
        assert main(["verify", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["learn", "--threshold", "1.5"], "--threshold must be in (0, 1], got 1.5"),
            (["learn", "--threshold", "-1"], "--threshold must be in (0, 1], got -1.0"),
            (["study", "--threshold", "0"], "--threshold must be in (0, 1], got 0.0"),
            (["campaign", "--adaptive", "--accuracy-target", "1.5"],
             "--accuracy-target must be in (0, 1], got 1.5"),
        ],
    )
    def test_bad_accuracy_target_is_one_line(self, argv, message, capsys):
        """A learning loop's accuracy target is a fraction: out of
        (0, 1] it would test everything or stop after one batch."""
        assert main([argv[0], "--app", "lu", *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_checkpoint_mismatch_is_one_line(self, tmp_path, capsys):
        """A legacy pickle checkpoint directory produces exit 2 and a
        single line naming the migrate command, not a traceback."""
        import pickle

        ck = tmp_path / "ck"
        ck.mkdir()
        with (ck / "units.pkl").open("wb") as fh:
            pickle.dump({"digest": "not-this-campaign", "format": 1}, fh)
        rc = main(
            [
                "campaign", "--app", "lu", "--tests", "2", "--max-points", "1",
                "--checkpoint-dir", str(ck), "--resume",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "fastfit migrate" in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


def test_supervision_flags_reach_the_tool():
    from repro.cli import _tool

    parser = build_parser()
    args = parser.parse_args(
        [
            "campaign", "--app", "lu", "--unit-timeout", "30",
            "--max-retries", "5", "--no-quarantine", "--jobs", "2",
        ]
    )
    ff = _tool(args)
    assert ff.unit_timeout == 30.0
    assert ff.max_retries == 5
    assert ff.quarantine is False
    assert ff.jobs == 2
