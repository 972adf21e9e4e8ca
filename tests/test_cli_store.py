"""CLI plumbing for the campaign store: ``run --db``, ``stats --db``,
``report``, ``migrate``, and the operator-error hygiene around them."""

import json
import sqlite3

import pytest

from repro.cli import main
from tests.store.test_migrate import write_legacy_checkpoint

CAMPAIGN_ARGS = [
    "--app", "lu", "--problem-class", "T", "--tests", "3", "--max-points", "4",
]


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    """One small DB-backed campaign shared by the read-only commands."""
    path = tmp_path_factory.mktemp("cli") / "c.sqlite"
    assert main(["run", *CAMPAIGN_ARGS, "--db", str(path)]) == 0
    return path


def test_run_is_a_campaign_alias(db_path, capsys):
    capsys.readouterr()
    assert main(["run", *CAMPAIGN_ARGS, "--db", str(db_path), "--resume"]) == 0
    out = capsys.readouterr().out
    assert "response types" in out


def test_run_defaults_to_lu(capsys):
    assert main(["run", "--tests", "2", "--max-points", "2"]) == 0
    assert "response types" in capsys.readouterr().out


def test_stats_db_text(db_path, capsys):
    assert main(["stats", "--db", str(db_path)]) == 0
    out = capsys.readouterr().out
    assert "campaign" in out and "lu" in out
    assert "complete" in out
    assert "response types (stored)" in out
    assert "snapshot.fork_s" in out


def test_stats_db_json_matches_sqlite(db_path, capsys):
    assert main(["stats", "--db", str(db_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["campaign"]["app"] == "lu"
    assert data["campaign"]["complete"] is True

    # the acceptance-criteria query: raw sqlite3 agrees with the CLI
    conn = sqlite3.connect(db_path)
    hist = dict(
        conn.execute("SELECT outcome, COUNT(*) FROM results GROUP BY outcome")
    )
    conn.close()
    assert data["outcomes"] == hist
    assert data["campaign"]["recorded_tests"] == sum(hist.values())


def test_stats_db_digest_prefix(db_path, capsys):
    assert main(["stats", "--db", str(db_path), "--json"]) == 0
    digest = json.loads(capsys.readouterr().out)["campaign"]["digest"]
    assert main(["stats", "--db", str(db_path), "--digest", digest[:10]]) == 0
    assert digest[:12] in capsys.readouterr().out


def test_report_command(db_path, tmp_path, capsys):
    out_dir = tmp_path / "report"
    assert main(["report", "--db", str(db_path), "--out", str(out_dir)]) == 0
    assert "report written to" in capsys.readouterr().out
    html = (out_dir / "index.html").read_text()
    for anchor in ("summary", "heatmap", "sensitivity", "forensics"):
        assert f'id="{anchor}"' in html


def test_progress_jsonl_flag(tmp_path, capsys):
    prog = tmp_path / "prog.jsonl"
    assert (
        main(["run", *CAMPAIGN_ARGS, "--progress-jsonl", str(prog)]) == 0
    )
    records = [json.loads(ln) for ln in prog.read_text().splitlines()]
    assert records
    assert records[-1]["done_tests"] == records[-1]["total_tests"]


def test_migrate_command(tmp_path, capsys):
    src = tmp_path / "src.sqlite"
    assert main(["campaign", *CAMPAIGN_ARGS, "--db", str(src)]) == 0
    capsys.readouterr()
    ckdir = tmp_path / "ck"
    write_legacy_checkpoint(src, ckdir)

    db = tmp_path / "migrated.sqlite"
    assert main(["migrate", "--checkpoint-dir", str(ckdir), "--db", str(db)]) == 0
    out = capsys.readouterr().out
    assert "migrated campaign" in out and "complete" in out

    # stored stats and the report work on the migrated database
    assert main(["stats", "--db", str(db)]) == 0
    assert "response types (stored)" in capsys.readouterr().out


def test_checkpoint_dir_is_a_campaign_database(tmp_path, capsys):
    """``--checkpoint-dir DIR`` writes ``DIR/campaign.db``, which
    ``stats --db`` and ``report --db`` read without a migrate step."""
    ckdir = tmp_path / "ck"
    assert main(["campaign", *CAMPAIGN_ARGS, "--checkpoint-dir", str(ckdir)]) == 0
    capsys.readouterr()
    db = ckdir / "campaign.db"
    assert db.is_file()
    assert not (ckdir / "units.pkl").exists()

    assert main(["stats", "--db", str(db), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["campaign"]["complete"] is True
    assert data["campaign"]["recorded_tests"] == 4 * 3
    assert main(["report", "--db", str(db), "--out", str(tmp_path / "report")]) == 0
    assert (tmp_path / "report" / "index.html").exists()


def test_legacy_checkpoint_dir_resumes_after_migrate(tmp_path, capsys):
    """Resuming from a directory that holds only a legacy pickle stream
    exits 2 with one line naming the migrate command; after that command
    the resume executes nothing."""
    src = tmp_path / "src.sqlite"
    assert main(["campaign", *CAMPAIGN_ARGS, "--db", str(src)]) == 0
    ckdir = tmp_path / "ck"
    write_legacy_checkpoint(src, ckdir)
    capsys.readouterr()

    resume = ["stats", *CAMPAIGN_ARGS, "--checkpoint-dir", str(ckdir), "--resume", "--json"]
    assert main(resume) == 2
    err = capsys.readouterr().err
    db = ckdir / "campaign.db"
    assert f"fastfit migrate --checkpoint-dir {ckdir} --db {db}" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not db.exists()

    assert main(["migrate", "--checkpoint-dir", str(ckdir), "--db", str(db)]) == 0
    capsys.readouterr()
    assert main(resume) == 0
    counters = json.loads(capsys.readouterr().out)["counters"]
    assert counters.get("exec.units", 0) == 0
    assert counters["exec.units_resumed"] == 4
    assert counters["campaign.tests"] == 4 * 3


def test_adaptive_records_rounds_in_checkpoint_dir(tmp_path, capsys):
    """``--adaptive`` persists through ``--checkpoint-dir`` like
    ``--db``: the steering rounds land in ``DIR/campaign.db``."""
    from repro.store import CampaignDB

    ckdir = tmp_path / "ck"
    assert main(
        ["campaign", *CAMPAIGN_ARGS, "--adaptive", "--checkpoint-dir", str(ckdir)]
    ) == 0
    capsys.readouterr()
    with CampaignDB(ckdir / "campaign.db") as db:
        assert db.steering_rounds(db.campaign()["id"])


def test_learn_db_gets_the_steering_view(tmp_path, capsys):
    """``learn --db`` records its rounds like ``--adaptive``, and
    ``report`` renders them; ``--progress-jsonl`` spans every round."""
    from repro.store import CampaignDB

    db, prog = tmp_path / "learn.db", tmp_path / "prog.jsonl"
    assert main([
        "learn", "--app", "lu", "--tests", "2", "--max-points", "8",
        "--batch-size", "4", "--policy", "all", "--threshold", "0.5",
        "--db", str(db), "--progress-jsonl", str(prog),
    ]) == 0
    assert "ML-driven learning over 8 candidate points" in capsys.readouterr().out
    with CampaignDB(db) as store:
        rounds = store.steering_rounds(store.campaign()["id"])
    assert [r["round"] for r in rounds] == list(range(len(rounds))) and len(rounds) >= 2
    assert rounds[-1]["stop_reason"] in ("accuracy", "exhausted")
    assert len(prog.read_text().splitlines()) >= len(rounds)
    out_dir = tmp_path / "report"
    assert main(["report", "--db", str(db), "--out", str(out_dir)]) == 0
    html = (out_dir / "index.html").read_text()
    assert "stop reason" in html and "not a learning-loop campaign" not in html


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["run", "--adaptive"], "1f3f2494d9f833b332cae385b135cca3f73d0b3b62d2b9917e333f509e8efc96"),
        (["learn"], "5ecd65fb1550602755d397f1dff53b5415fcfb712cb32793c7aad641d482cb74"),
    ],
    ids=["steer", "learn"],
)
def test_loop_store_digest_is_pinned(argv, digest, tmp_path, capsys):
    """The store row of a learning-loop run, keyed by the loop options
    at their CLI defaults (target, stopper, budget, batch size): a
    database written before those options moved keeps resuming."""
    db = tmp_path / "loop.db"
    assert main([
        *argv, "--app", "lu", "--tests", "2", "--max-points", "8",
        "--policy", "all", "--db", str(db),
    ]) == 0
    with sqlite3.connect(db) as conn:
        assert conn.execute("SELECT digest FROM campaigns").fetchall() == [(digest,)]


class TestErrorHygiene:
    """Operator errors exit 2 with one line on stderr, no tracebacks."""

    def test_resume_message_names_both_stores(self, capsys):
        assert main(["campaign", "--app", "lu", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume requires --checkpoint-dir or --db" in err

    def test_checkpoint_dir_and_db_are_exclusive(self, tmp_path, capsys):
        assert (
            main(
                ["campaign", "--app", "lu",
                 "--checkpoint-dir", str(tmp_path / "ck"),
                 "--db", str(tmp_path / "c.sqlite")]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "mutually exclusive" in err
        assert "Traceback" not in err

    def test_bad_progress_every(self, capsys):
        assert main(["campaign", "--app", "lu", "--progress-every", "0"]) == 2
        assert "--progress-every must be >= 1" in capsys.readouterr().err

    def test_stats_without_app_or_db(self, capsys):
        assert main(["stats"]) == 2
        err = capsys.readouterr().err
        assert "--app" in err and "--db" in err

    def test_stats_unknown_digest(self, db_path, capsys):
        assert main(["stats", "--db", str(db_path), "--digest", "ffffffff"]) == 2
        err = capsys.readouterr().err
        assert "ffffffff" in err
        assert "Traceback" not in err

    def test_report_empty_db_is_one_line(self, tmp_path, capsys):
        from repro.store import CampaignDB

        empty = tmp_path / "empty.sqlite"
        CampaignDB(empty).open().close()
        assert main(["report", "--db", str(empty), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.strip()

    def test_migrate_missing_checkpoint_is_one_line(self, tmp_path, capsys):
        assert (
            main(
                ["migrate", "--checkpoint-dir", str(tmp_path / "nope"),
                 "--db", str(tmp_path / "c.sqlite")]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.strip()
