"""CLI plumbing for the campaign store: ``campaign --db``, ``stats --db``,
``report``, resume, and the operator-error hygiene around them."""

import json
import os
import pickle
import shlex
import sqlite3

import pytest

from repro.cli import main
from tests.store.test_steering_rounds import fabricate_old_version

CAMPAIGN_ARGS = [
    "--app", "lu", "--problem-class", "T", "--tests", "3", "--max-points", "4",
]


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    """One small DB-backed campaign shared by the read-only commands."""
    path = tmp_path_factory.mktemp("cli") / "c.sqlite"
    assert main(["campaign", *CAMPAIGN_ARGS, "--db", str(path)]) == 0
    return path


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
        main(["campaign", *CAMPAIGN_ARGS, "--progress-jsonl", str(prog)]) == 0
    )
    records = [json.loads(ln) for ln in prog.read_text().splitlines()]
    assert records
    assert records[-1]["done_tests"] == records[-1]["total_tests"]


def test_parallel_campaign_store_report_and_progress(tmp_path, capsys):
    """A ``--jobs 2`` campaign into ``--db`` with ``--progress-jsonl``:
    ``stats --db --json`` agrees with raw SQL and calls the campaign
    complete, the report has every section anchor, and the last
    progress snapshot counts every test."""
    db, prog, out_dir = tmp_path / "c.sqlite", tmp_path / "progress.jsonl", tmp_path / "report"
    assert main([
        "campaign", "--app", "lu", "--problem-class", "T", "--tests", "2", "--max-points", "4",
        "--jobs", "2", "--db", str(db), "--progress-jsonl", str(prog),
    ]) == 0
    capsys.readouterr()

    assert main(["stats", "--db", str(db), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    conn = sqlite3.connect(db)
    hist = dict(conn.execute("SELECT outcome, COUNT(*) FROM results GROUP BY outcome"))
    conn.close()
    assert data["outcomes"] == hist
    assert data["campaign"]["complete"] is True

    assert main(["report", "--db", str(db), "--out", str(out_dir)]) == 0
    html = (out_dir / "index.html").read_text()
    for anchor in ("summary", "timeline", "heatmap", "sensitivity", "breakdown", "forensics"):
        assert f'id="{anchor}"' in html, anchor

    last = json.loads(prog.read_text().splitlines()[-1])
    assert last["done_tests"] == last["total_tests"] == 4 * 2


@pytest.mark.parametrize(
    "args, units, tests",
    [
        (["--app", "is", "--problem-class", "T", "--tests", "4", "--max-points", "4",
          "--jobs", "2"], 4, 16),
        (CAMPAIGN_ARGS, 4, 12),
    ],
    ids=["is-jobs2", "lu"],
)
def test_resume_of_complete_db_runs_nothing(args, units, tests, tmp_path, capsys):
    """A resume of a complete ``--db`` campaign rebuilds every unit from
    the database and executes none: its stored final metrics say so."""
    ck = ["--db", str(tmp_path / "campaign.db")]
    assert main(["campaign", *args, *ck]) == 0
    assert main(["campaign", *args, *ck, "--resume"]) == 0
    capsys.readouterr()
    assert main(["stats", "--json", *ck]) == 0
    counters = json.loads(capsys.readouterr().out)["metrics"]["counters"]
    assert counters.get("exec.units", 0) == 0
    assert counters["exec.units_resumed"] == units
    assert counters["campaign.tests"] == tests


class _Hostile:
    """Unpickling this runs a shell command."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (os.system, (f"touch {shlex.quote(str(self.marker))}",))


def test_hostile_old_database_runs_nothing(tmp_path, capsys):
    """A v3 database whose unit BLOBs hold a pickle with a side effect:
    resume, ``stats`` and ``report`` never unpickle it.  The migration to
    v4 drops the old units, so the resume re-runs them."""
    db, marker = tmp_path / "c.sqlite", tmp_path / "marker"
    args = ["--app", "is", "--problem-class", "T", "--tests", "2", "--max-points", "2",
            "--db", str(db)]
    assert main(["campaign", *args]) == 0
    fabricate_old_version(db, 3)
    conn = sqlite3.connect(db)
    poisoned = conn.execute(
        "UPDATE units SET payload = ?, metrics = ?",
        (pickle.dumps(_Hostile(marker)), pickle.dumps(_Hostile(marker))),
    ).rowcount
    conn.commit()
    conn.close()
    assert poisoned > 0
    capsys.readouterr()

    assert main(["campaign", *args, "--resume"]) == 0
    err = capsys.readouterr().err
    assert main(["stats", "--db", str(db), "--json"]) == 0
    out, stats_err = capsys.readouterr()
    stored = json.loads(out)
    assert main(["report", "--db", str(db), "--out", str(tmp_path / "report")]) == 0
    err += stats_err + capsys.readouterr().err
    assert not marker.exists()
    assert "Traceback" not in err
    assert stored["metrics"]["counters"]["exec.units"] > 0
    assert stored["campaign"]["recorded_tests"] == 2 * 2


def test_adaptive_records_rounds_in_db(tmp_path, capsys):
    """``campaign --adaptive --db`` records its steering rounds."""
    from repro.store import CampaignDB

    path = tmp_path / "campaign.db"
    assert main(["campaign", *CAMPAIGN_ARGS, "--adaptive", "--db", str(path)]) == 0
    capsys.readouterr()
    with CampaignDB(path) as db:
        assert db.steering_rounds(db.campaign()["id"])


@pytest.fixture(scope="module")
def learn_db(tmp_path_factory):
    """A two-round ``learn --db`` run (2 tests at each of 8 points, in
    batches of 4), its progress file and its report."""
    tmp = tmp_path_factory.mktemp("learn")
    db, prog, out_dir = tmp / "learn.db", tmp / "prog.jsonl", tmp / "report"
    assert main([
        "learn", "--app", "lu", "--tests", "2", "--max-points", "8",
        "--batch-size", "4", "--policy", "all", "--threshold", "0.5",
        "--db", str(db), "--progress-jsonl", str(prog),
    ]) == 0
    assert main(["report", "--db", str(db), "--out", str(out_dir)]) == 0
    return db, prog, (out_dir / "index.html").read_text()


def test_learn_db_gets_the_steering_view(learn_db):
    """``learn --db`` records its rounds like ``--adaptive``, and
    ``report`` renders them; ``--progress-jsonl`` spans every round."""
    from repro.store import CampaignDB

    db, prog, html = learn_db
    with CampaignDB(db) as store:
        rounds = store.steering_rounds(store.campaign()["id"])
    assert [r["round"] for r in rounds] == list(range(len(rounds))) and len(rounds) >= 2
    assert rounds[-1]["stop_reason"] in ("accuracy", "exhausted")
    assert len(prog.read_text().splitlines()) >= len(rounds)
    assert "stop reason" in html and "not a learning-loop campaign" not in html


def test_learn_db_heatmap_has_every_tested_point(learn_db):
    """Every point a learning-loop round tested is a heatmap row, not
    only the last round's."""
    db, _, html = learn_db
    with sqlite3.connect(db) as conn:
        tested = conn.execute("SELECT COUNT(DISTINCT point_index) FROM results").fetchone()[0]
    assert tested == 8
    heatmap = html[html.index('id="heatmap"'):html.index('id="sensitivity"')]
    assert heatmap.count("<tr>") == 1 + tested  # header row + one per point


def test_learn_db_timeline_keeps_every_round(learn_db):
    """Each round's progress rows follow the previous round's: the
    stored timeline is the progress file, renumbered and monotone."""
    from repro.store import CampaignDB

    db, prog, _ = learn_db
    with CampaignDB(db) as store:
        rows = store.progress_rows(store.campaign()["id"])
    snaps = [json.loads(line) for line in prog.read_text().splitlines()]
    assert len(rows) == len(snaps) == 8
    assert [r["seq"] for r in rows] == list(range(1, 9))
    assert [r["done_tests"] for r in rows] == [s["done_tests"] for s in snaps]
    elapsed = [r["elapsed_s"] for r in rows]
    assert elapsed == sorted(elapsed)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["campaign", "--adaptive"],
         "1f3f2494d9f833b332cae385b135cca3f73d0b3b62d2b9917e333f509e8efc96"),
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

    def test_bad_progress_every(self, capsys):
        assert main(["campaign", "--app", "lu", "--progress-every", "0"]) == 2
        assert "--progress-every must be >= 1" in capsys.readouterr().err

    def test_stats_requires_db(self, capsys):
        """``stats`` only reads a store: without ``--db`` it is a usage
        error, and it takes no campaign option."""
        for argv in (["stats"], ["stats", "--app", "lu"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--db" in capsys.readouterr().err

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
