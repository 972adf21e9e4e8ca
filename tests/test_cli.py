"""CLI tests (the ``fastfit`` entry point)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import FastFIT
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


def test_trace_rejects_negative_bit(capsys):
    assert main(["trace", "--app", "lu", "--problem-class", "T", "--bit", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["--bit must be >= 0, got -1"]


def test_trace_pinned_bit_past_the_parameter_is_skipped(capsys):
    """``--bit 99`` on a 32-bit count runs the test clean instead of
    crashing the rank fiber inside the harness."""
    assert main(
        ["trace", "--app", "lu", "--problem-class", "T", "--point", "0",
         "--param", "count", "--bit", "99", "--limit", "1000"]
    ) == 0
    out = capsys.readouterr().out
    assert "outcome: SUCCESS" in out
    assert "param=count bit=99 skipped" in out


@pytest.fixture(scope="module")
def is_db(tmp_path_factory):
    """A small IS class-T campaign stored with ``campaign --db``."""
    path = tmp_path_factory.mktemp("stats") / "is.db"
    assert main([
        "campaign", "--app", "is", "--problem-class", "T", "--tests", "2",
        "--max-points", "4", "--db", str(path),
    ]) == 0
    return path


def test_stats_smoke(is_db, capsys):
    capsys.readouterr()
    assert main(["stats", "--db", str(is_db)]) == 0
    out = capsys.readouterr().out
    assert "phase" in out
    assert "tests/sec" in out
    assert "SUCCESS" in out


def test_stats_prints_only_timers_that_ran(is_db, capsys):
    """The final metrics are stored while the facade's campaign phase
    timer is still open: that timer has no sample and is not printed
    as a zero-second phase."""
    capsys.readouterr()
    assert main(["stats", "--db", str(is_db)]) == 0
    out = capsys.readouterr().out
    table = out[out.index("phase timings"):].split("\n\n")[0].splitlines()[3:]
    assert table and all(int(line.split("|")[1]) > 0 for line in table)
    assert "phase.campaign_s" not in out


def test_stats_json_export(is_db, capsys):
    capsys.readouterr()
    assert main(["stats", "--db", str(is_db), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["metrics"]["counters"]["campaign.tests"] > 0
    assert "exec.unit_s" in data["metrics"]["timers"]


class TestErrorHygiene:
    """Operator errors exit with code 2 and one line on stderr — no
    tracebacks, no partial output."""

    def test_resume_without_db(self, capsys):
        assert main(["campaign", "--app", "lu", "--resume"]) == 2
        assert "--resume requires --db" in capsys.readouterr().err

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
            (["--jobs", "0"], "--jobs must be >= 1, got 0"),
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
            (["--tests", "-1"], "--tests must be >= 1, got -1"),
            (["--max-points", "-1"], "--max-points must be >= 1, got -1"),
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
            (["campaign", "--ci-width", "0.3"], "--ci-width requires --adaptive"),
            (["campaign", "--budget", "100"], "--budget requires --adaptive"),
            (["campaign", "--accuracy-target", "0.7"], "--accuracy-target requires --adaptive"),
            (["campaign", "--adaptive", "--scenario", "s.json"],
             "--adaptive and --scenario are mutually exclusive"),
            (["campaign", "--adaptive", "--static-prune"],
             "--adaptive is incompatible with --static-prune "
             "(sequential stopping needs every test slot executed)"),
            (["campaign", "--adaptive", "--budget", "0"], "--budget must be >= 1 test, got 0"),
            (["campaign", "--adaptive", "--ci-width", "1.5"],
             "--ci-width must be in (0, 1], got 1.5"),
            (["campaign", "--batch-size", "0"], "--batch-size must be >= 1, got 0"),
        ],
    )
    def test_bad_accuracy_target_is_one_line(self, argv, message, capsys):
        """A learning loop's accuracy target is a fraction: out of
        (0, 1] it would test everything or stop after one batch.  The
        loop's other options and their combination rules fail the
        same way."""
        assert main([argv[0], "--app", "lu", *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.strip() == message
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["learn", "study", "stats"])
    @pytest.mark.parametrize(
        "flags", [["--adaptive"], ["--ci-width", "0.3"], ["--budget", "9"],
                  ["--accuracy-target", "0.7"]],
    )
    def test_adaptive_flags_only_on_campaign_and_run(self, command, flags, capsys):
        """Only campaign steers; learn and study spell the target
        ``--threshold``, and stats, which only reads a store, takes no
        campaign option."""
        source = ["--db", "c.db"] if command == "stats" else ["--app", "lu"]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    def test_named_policy_runs_where_the_parameter_is(self, capsys):
        """A policy naming one parameter keeps the points whose
        collective has it: IS's Bcast points have a ``root``."""
        assert main(["campaign", "--app", "is", "--policy", "root",
                     "--tests", "2", "--max-points", "2"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "Bcast" in captured.out and "Allreduce" not in captured.out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["campaign", "--app", "is", "--policy", "displs", "--tests", "1"],
             "--policy 'displs' names no parameter of a collective is calls "
             "(Allgather, Allreduce, Alltoall, Alltoallv, Bcast)"),
            (["analyze", "--app", "is", "--policy", "displs", "--tests", "1"],
             "--policy 'displs' names no parameter of a collective is calls "
             "(Allgather, Allreduce, Alltoall, Alltoallv, Bcast)"),
        ],
        ids=["campaign-empty-selection", "analyze-empty-selection"],
    )
    def test_named_policy_without_the_parameter_is_one_line(self, argv, message, capsys):
        """``campaign`` and ``analyze`` select points by one rule
        (:func:`repro.injection.targets.select_points`), so an empty
        selection fails both the same way."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.strip() == message

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--test", "-1"], "--test must be >= 0, got -1"),
            (["--limit", "-1"], "--limit must be >= 0, got -1"),
            (["--capacity", "0"], "--capacity must be >= 1, got 0"),
            (["--max-search", "-1"], "--max-search must be >= 1, got -1"),
        ],
    )
    def test_bad_trace_option_is_one_line(self, flags, message, capsys):
        """A negative test index or a zero-event ring buffer used to
        end in a ``ValueError`` traceback; a negative ``--limit``
        silently dropped the last event."""
        assert main(["trace", "--app", "is", *flags]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [message]


def test_trace_replays_the_named_policy_campaign(capsys):
    """``trace --point N --test t`` is test ``(N, t)`` of the campaign
    over ``FastFIT.points()``: under ``--policy root`` on IS, point 0 is
    the first Bcast representative, not representative 0 (Allgather)."""
    ff = FastFIT.for_app("is", "T", param_policy="root", tests_per_point=2, max_points=1)
    [(point, pr)] = ff.campaign().points.items()
    test = pr.tests[1]
    assert main(["trace", "--app", "is", "--policy", "root", "--point", "0",
                 "--test", "1", "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    meta, result = records[0], records[-1]
    [fired] = [r for r in records if r.get("kind") == "fault_fired"]
    assert meta["point"] == {"rank": point.rank, "collective": point.collective,
                             "site": point.site, "invocation": point.invocation}
    assert (meta["param"], fired["bit"]) == (test.spec.param, test.record.bit)
    assert (result["outcome"], result["detail"]) == (test.outcome.value, test.detail)


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


def test_closed_stdout_pipe_exits_quietly():
    """``fastfit trace ... | head`` with the reader gone before the
    first line: no ``BrokenPipeError`` traceback on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "trace", "--app", "lu",
         "--problem-class", "T", "--point", "0"],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        stdout=write_end, stderr=subprocess.PIPE, text=True,
    )
    os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert proc.returncode == 1
