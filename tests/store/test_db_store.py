"""CampaignDB / DBCheckpointStore unit tests (no campaign runs)."""


import pytest

from repro.injection import FaultSpec, InjectionPoint, Outcome
from repro.injection import TestResult as InjectionTestResult
from repro.store import CampaignDB, CampaignStoreError, DBCheckpointStore
from repro.store.db import result_from_row

DIGEST = "d" * 64

CAMPAIGN_INFO = dict(
    app="lu",
    nranks=4,
    seed=7,
    tests_per_point=3,
    param_policy="all",
    unit_tests=3,
    algorithms={"allreduce": "ring"},
    code_version="test",
    n_points=2,
    total_units=2,
)


def make_tests(point_index=0, n=3, outcome=Outcome.SUCCESS):
    point = InjectionPoint(
        rank=0, collective="allreduce", site=f"site{point_index}", invocation=0
    )
    return [
        InjectionTestResult(
            spec=FaultSpec(point=point, param="sendbuf", bit=i),
            outcome=outcome,
            record=None,
            detail=f"test {i}",
        )
        for i in range(n)
    ]


@pytest.fixture
def db(tmp_path):
    with CampaignDB(tmp_path / "c.sqlite") as db:
        yield db


def test_open_creates_schema(db):
    tables = {
        row["name"]
        for row in db.conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
    }
    assert {
        "schema_meta", "campaigns", "units", "results",
        "point_tallies", "quarantine", "metrics_snapshots", "progress",
    } <= tables


def test_schema_version_mismatch_rejected(tmp_path):
    path = tmp_path / "c.sqlite"
    with CampaignDB(path) as db:
        db.conn.execute(
            "UPDATE schema_meta SET value = '999' WHERE key = 'schema_version'"
        )
    with pytest.raises(CampaignStoreError, match="schema version"):
        CampaignDB(path).open()


def test_open_non_database_file_is_store_error(tmp_path):
    path = tmp_path / "garbage.sqlite"
    path.write_bytes(b"this is not a sqlite file, not even close to one..")
    with pytest.raises(CampaignStoreError, match="cannot open"):
        CampaignDB(path).open()


def test_create_campaign_is_get_or_create(db):
    cid = db.create_campaign(DIGEST, **CAMPAIGN_INFO)
    assert db.create_campaign(DIGEST, **CAMPAIGN_INFO) == cid
    assert db.campaign_id(DIGEST) == cid
    row = db.campaign(DIGEST)
    assert row["app"] == "lu"
    assert row["complete"] == 0


def test_fresh_drops_prior_campaign_data(db):
    cid = db.create_campaign(DIGEST, **CAMPAIGN_INFO)
    db.record_unit(cid, "p0:t0-3", make_tests())
    assert len(db.load_units(cid)) == 1
    cid2 = db.create_campaign(DIGEST, fresh=True, **CAMPAIGN_INFO)
    assert db.load_units(cid2) == {}
    # cascade cleared the old results rows too
    assert db.conn.execute("SELECT COUNT(*) AS n FROM results").fetchone()["n"] == 0


def test_digest_prefix_lookup(db):
    db.create_campaign(DIGEST, **CAMPAIGN_INFO)
    assert db.campaign(DIGEST[:12])["digest"] == DIGEST
    assert db.campaign("nope") is None
    db.create_campaign("d" * 63 + "e", **CAMPAIGN_INFO)
    with pytest.raises(CampaignStoreError, match="ambiguous"):
        db.campaign(DIGEST[:12])


def test_record_unit_roundtrip(db):
    cid = db.create_campaign(DIGEST, **CAMPAIGN_INFO)
    tests = make_tests(point_index=1, n=3, outcome=Outcome.WRONG_ANS)
    db.record_unit(cid, "p1:t0-3", tests)

    loaded, metrics = db.load_units(cid)["p1:t0-3"]
    assert metrics is None
    # The rows are the tests; only the spec is redrawn by the caller.
    assert [result_from_row(r, t.spec) for r, t in zip(loaded, tests)] == tests

    rows = list(db.results(cid))
    assert [(r["point_index"], r["test_index"]) for r in rows] == [
        (1, 0), (1, 1), (1, 2),
    ]
    assert all(r["collective"] == "allreduce" for r in rows)
    assert all(r["bit"] is None for r in rows)  # record=None -> no flip landed
    assert db.outcome_histogram(cid) == {"WRONG_ANS": 3}


def test_record_unit_test_index_offsets_from_unit_start(db):
    cid = db.create_campaign(DIGEST, **CAMPAIGN_INFO)
    db.record_unit(cid, "p0:t6-9", make_tests())
    assert [r["test_index"] for r in db.results(cid)] == [6, 7, 8]


def test_point_tallies_roundtrip(db):
    cid = db.create_campaign(DIGEST, **CAMPAIGN_INFO)
    db.record_point_tallies(
        cid,
        [
            (0, 0, "allreduce", "siteA", 0, "SUCCESS", 5),
            (0, 0, "allreduce", "siteA", 0, "INF_LOOP", 1),
            (1, 2, "bcast", "siteB", 1, "SUCCESS", 6),
        ],
    )
    rows = db.point_tallies(cid)
    assert [(r["point_index"], r["outcome"], r["n"]) for r in rows] == [
        (0, "INF_LOOP", 1),
        (0, "SUCCESS", 5),
        (1, "SUCCESS", 6),
    ]
    # record replaces, not appends
    db.record_point_tallies(cid, [(0, 0, "allreduce", "siteA", 0, "SUCCESS", 9)])
    assert len(db.point_tallies(cid)) == 1


def test_metrics_snapshot_roundtrip(db):
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    reg.counter("exec.retries").inc(3)
    cid = db.create_campaign(DIGEST, **CAMPAIGN_INFO)
    db.record_metrics(cid, "final", reg)
    snap = db.metrics_snapshot(cid, "final")
    assert snap["counters"]["exec.retries"] == 3
    assert db.metrics_snapshot(cid, "missing") is None


def test_update_campaign_prunes_stale_quarantine(db):
    cid = db.create_campaign(DIGEST, **CAMPAIGN_INFO)
    db.record_quarantine(cid, "p0:t0-3", "unit timeout")
    db.record_quarantine(cid, "p1:t0-3", "worker died")
    # p0 succeeded on retry: the manifest keeps only p1 quarantined
    db.update_campaign(
        cid,
        complete=True,
        quarantined=["p1:t0-3"],
        quarantine_reasons={"p1:t0-3": "worker died"},
    )
    rows = db.quarantine_records(cid)
    assert [(r["unit_id"], r["reason"]) for r in rows] == [("p1:t0-3", "worker died")]
    assert db.campaign(DIGEST)["complete"] == 1


class TestDBCheckpointStore:
    def test_lifecycle_and_resume(self, tmp_path):
        path = tmp_path / "c.sqlite"
        store = DBCheckpointStore(path, DIGEST, campaign_info=CAMPAIGN_INFO)
        assert store.load(resume=False) == {}
        store.record("p0:t0-3", make_tests())
        store.write_manifest(total_units=2, complete=False)
        store.close()
        assert store.closed

        again = DBCheckpointStore(path, DIGEST, campaign_info=CAMPAIGN_INFO)
        known = again.load(resume=True)
        assert set(known) == {"p0:t0-3"}
        again.record("p1:t0-3", make_tests(point_index=1))
        again.write_manifest(total_units=2, complete=True)
        again.close()

        with CampaignDB(path) as db:
            row = db.campaign(DIGEST)
            assert row["complete"] == 1
            assert row["total_units"] == 2

    def test_fresh_load_drops_previous_attempt(self, tmp_path):
        path = tmp_path / "c.sqlite"
        store = DBCheckpointStore(path, DIGEST, campaign_info=CAMPAIGN_INFO)
        store.load(resume=False)
        store.record("p0:t0-3", make_tests())
        store.close()

        fresh = DBCheckpointStore(path, DIGEST, campaign_info=CAMPAIGN_INFO)
        assert fresh.load(resume=False) == {}
        fresh.close()

    def test_quarantined_unit_not_persisted_as_completed(self, tmp_path):
        """Quarantine rows are forensic metadata: a resume must retry the
        unit, so it never appears in the completed set."""
        path = tmp_path / "c.sqlite"
        store = DBCheckpointStore(path, DIGEST, campaign_info=CAMPAIGN_INFO)
        store.load(resume=False)
        store.record("p0:t0-3", make_tests())
        store.record_quarantine("p1:t0-3", "unit timeout after 2 retries")
        store.write_manifest(total_units=2, complete=False, quarantined=["p1:t0-3"])
        store.close()

        again = DBCheckpointStore(path, DIGEST, campaign_info=CAMPAIGN_INFO)
        assert set(again.load(resume=True)) == {"p0:t0-3"}
        with CampaignDB(path) as db:
            rows = db.quarantine_records(again.campaign_id)
            assert [(r["unit_id"], r["reason"]) for r in rows] == [
                ("p1:t0-3", "unit timeout after 2 retries")
            ]
        again.close()

    def test_progress_sink_writes_rows(self, tmp_path):
        from repro.obs.progress import ProgressTracker

        path = tmp_path / "c.sqlite"
        store = DBCheckpointStore(path, DIGEST, campaign_info=CAMPAIGN_INFO)
        store.load(resume=False)
        tracker = ProgressTracker(6, 2, sinks=[store.progress_sink()])
        tracker.unit_done(make_tests())
        tracker.unit_done(make_tests(point_index=1))
        tracker.finish()
        rows = CampaignDB(path).open().progress_rows(store.campaign_id)
        assert [r["seq"] for r in rows] == [1, 2]
        assert rows[-1]["done_tests"] == 6
        store.close()

    def test_record_before_load_is_an_error(self, tmp_path):
        store = DBCheckpointStore(tmp_path / "c.sqlite", DIGEST)
        with pytest.raises(RuntimeError, match="load"):
            store.record("p0:t0-3", make_tests())


def test_many_campaigns_share_one_file(tmp_path):
    path = tmp_path / "c.sqlite"
    with CampaignDB(path) as db:
        a = db.create_campaign("a" * 64, **CAMPAIGN_INFO)
        b = db.create_campaign("b" * 64, **CAMPAIGN_INFO)
        db.record_unit(a, "p0:t0-3", make_tests())
        db.record_unit(b, "p0:t0-3", make_tests(outcome=Outcome.SEG_FAULT))
        assert db.outcome_histogram(a) == {"SUCCESS": 3}
        assert db.outcome_histogram(b) == {"SEG_FAULT": 3}
        assert len(db.campaigns()) == 2
