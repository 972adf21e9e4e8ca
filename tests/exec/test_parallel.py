"""Campaign engine: bit-identical execution under every executor, unit
slicing and resume — anchored to the scratch reference loop."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.exec import WorkerState, WorkUnit
from repro.injection import Campaign, Outcome, enumerate_points
from repro.obs.metrics import MetricsRegistry
from repro.snapshot import SnapshotEngine
from repro.steer import SequentialStopper
from tests.conftest import KillSink, ProgressLog


def campaign_signature(result):
    """Everything the determinism guarantee covers: point order, every
    test whole (spec, outcome, every injection-record field, detail),
    and the derived rates."""
    return [(point, pr.tests, pr.error_rate) for point, pr in result.points.items()]


@pytest.fixture(scope="module")
def lu_points(lu_profile):
    return enumerate_points(lu_profile)[:4]


@pytest.fixture(scope="module")
def serial_result(lu_app, lu_profile, lu_points):
    return Campaign(
        lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11
    ).run(lu_points)


class TestDeterminism:
    @pytest.mark.parametrize("snapshot", [True, False])
    def test_jobs1_bit_identical_to_scratch_reference(
        self, scratch_reference, lu_app, lu_profile, lu_points, snapshot
    ):
        """The anchor: the engine's in-process executor, with and without
        snapshot serving, reproduces the plain draw_task + run_one loop —
        so every "≡ jobs=1" assertion elsewhere is "≡ scratch"."""
        reference = scratch_reference(lu_app, lu_profile, lu_points, 6, 11, "all")
        engine = Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            snapshot=snapshot,
        ).run(lu_points)
        assert campaign_signature(engine) == campaign_signature(reference)
        assert engine.outcome_histogram() == reference.outcome_histogram()

    def test_jobs4_bit_identical_to_jobs1(self, lu_app, lu_profile, lu_points, serial_result):
        """The headline guarantee: a 4-worker NPB campaign reproduces the
        serial run exactly — outcomes, error rates, per-test FaultSpecs."""
        parallel = Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11, jobs=4
        ).run(lu_points)
        assert campaign_signature(parallel) == campaign_signature(serial_result)
        assert parallel.outcome_histogram() == serial_result.outcome_histogram()

    def test_unit_size_does_not_change_results(
        self, lu_app, lu_profile, lu_points, serial_result
    ):
        """Arbitrary slicings of a point through the unit executor,
        concatenated, equal the whole-point unit (and the campaign) —
        with and without snapshot serving."""
        pi, point = 2, lu_points[2]
        expected = [(t.spec, t.outcome) for t in serial_result.points[point].tests]
        for snapshot in (True, False):
            state = WorkerState(lu_app, lu_profile, "all", 11, None, snapshot)
            for cuts in ([0, 6], [0, 1, 2, 3, 4, 5, 6], [0, 2, 4, 6], [0, 1, 5, 6]):
                tests = []
                for a, b in zip(cuts, cuts[1:]):
                    unit = WorkUnit(pi, a, b)
                    unit_id, unit_tests, _registry = state.execute(unit, point)
                    assert unit_id == unit.unit_id
                    tests += unit_tests
                assert [(t.spec, t.outcome) for t in tests] == expected

    def test_parallel_metrics_match_serial(self, lu_app, lu_profile, lu_points):
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            metrics=serial,
        ).run(lu_points)
        Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            metrics=parallel, jobs=3,
        ).run(lu_points)
        s, p = serial.to_dict()["counters"], parallel.to_dict()["counters"]
        campaign_keys = {k for k in s if k.startswith("campaign.")}
        assert campaign_keys == {k for k in p if k.startswith("campaign.")}
        assert all(s[k] == p[k] for k in campaign_keys)
        # Worker-side snapshot timers merge like the counters: one
        # fork+reap sample per forked test, whoever forked it.
        for registry, counters in ((serial, s), (parallel, p)):
            assert registry.timer("snapshot.fork_s").count == counters["snapshot.forks"] > 0

    def test_progress_reports_tests_and_throttles(self, lu_app, lu_profile, lu_points):
        log = ProgressLog()
        Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            jobs=2, progress_sinks=[log], progress_every=4,
        ).run(lu_points)
        seen = log.seen
        total = 4 * 6
        assert seen[-1] == (total, total)
        assert all(t == total for _, t in seen)
        done = [d for d, _ in seen]
        assert done == sorted(done)
        # Throttled: one snapshot per 4 completed units (4 here).
        assert len(seen) <= 5


class _Oracle:
    """Stand-in pre-classifier: proves the given test indices SUCCESS."""

    def __init__(self, reference_tests, indices):
        self.reference_tests, self.indices = reference_tests, indices

    def predict(self, point, point_index, test_index):
        if test_index not in self.indices:
            return None
        spec = self.reference_tests[test_index].spec
        return SimpleNamespace(
            outcome=Outcome.SUCCESS, param=spec.param, bit=0, rule="oracle", detail=""
        )


@pytest.mark.usefixtures("always_fork")  # snapshot.forks == tests on a shallow point
class TestStopperDrivenUnit:
    """A stopper-driven whole-point unit is the batch unit cut short:
    same generator, one park, one fork per executed test."""

    TESTS = 10
    stopper = SequentialStopper(ci_width=0.9, min_tests=5)

    @pytest.fixture(scope="class")
    def reference_tests(self, scratch_reference, lu_app, lu_profile, lu_points):
        reference = scratch_reference(lu_app, lu_profile, lu_points, self.TESTS, 11, "all")
        return reference.points[lu_points[2]].tests

    def cut(self, tests):
        """Where ``stopper`` truncates an ordered stream."""
        return next(
            (n for n in range(1, len(tests)) if self.stopper.should_stop(tests[:n])), len(tests)
        )

    def execute(self, lu_app, lu_profile, lu_points, snapshot, **state_options):
        state = WorkerState(
            lu_app, lu_profile, "all", 11, None, snapshot, stopper=self.stopper, **state_options
        )
        _, tests, registry = state.execute(WorkUnit(2, 0, self.TESTS), lu_points[2])
        return tests, registry.to_dict()["counters"], registry

    @pytest.mark.parametrize("snapshot", [True, False])
    def test_truncates_where_the_scratch_stream_does(
        self, reference_tests, lu_app, lu_profile, lu_points, snapshot
    ):
        tests, counters, registry = self.execute(lu_app, lu_profile, lu_points, snapshot)
        stop = self.cut(reference_tests)
        assert 0 < stop < self.TESTS
        assert [(t.spec, t.outcome) for t in tests] == [
            (t.spec, t.outcome) for t in reference_tests[:stop]
        ]
        assert counters["campaign.tests_saved"] == self.TESTS - stop
        if snapshot:
            # One cold park for the whole unit: no re-serve, no fast-forward.
            assert counters["snapshot.misses"] == 1
            assert counters["snapshot.forks"] == stop
            assert "snapshot.hits" not in counters
            assert "snapshot.fallback_tests" not in counters
            assert registry.timer("snapshot.fastforward_s").count == 0
        else:
            assert not any(k.startswith("snapshot.") for k in counters)

    def test_dead_child_is_replayed_in_its_slot_before_the_next_draw(
        self, reference_tests, lu_app, lu_profile, lu_points, monkeypatch
    ):
        """Child 2 dies without a result: its slot holds the scratch
        result, the stopper still sees it in order, and the later tests
        are forked from the same park."""
        reap, reaped = SnapshotEngine._reap, []

        def lossy_reap(pid, rfd):
            reaped.append(pid)
            result = reap(pid, rfd)
            return None if len(reaped) == 2 else result

        monkeypatch.setattr(SnapshotEngine, "_reap", staticmethod(lossy_reap))
        tests, counters, _ = self.execute(lu_app, lu_profile, lu_points, True)
        stop = self.cut(reference_tests)
        assert stop >= 3
        assert [(t.spec, t.outcome, t.detail) for t in tests] == [
            (t.spec, t.outcome, t.detail) for t in reference_tests[:stop]
        ]
        assert counters["snapshot.misses"] == 1 and "snapshot.hits" not in counters
        assert counters["snapshot.forks"] == stop
        assert counters["snapshot.fallback_tests"] == 1

    @pytest.mark.parametrize("snapshot", [True, False])
    def test_predicted_tests_keep_their_slot_under_a_stopper(
        self, reference_tests, lu_app, lu_profile, lu_points, snapshot
    ):
        """Predicted and executed tests weave in test order, and the
        stopper counts both."""
        oracle = _Oracle(reference_tests, {0, 2})
        tests, counters, _ = self.execute(
            lu_app, lu_profile, lu_points, snapshot, preclassifier=oracle
        )
        woven = [
            replace(t, outcome=Outcome.SUCCESS, record=None, predicted=True)
            if i in oracle.indices else t
            for i, t in enumerate(reference_tests)
        ]
        stop = self.cut(woven)
        assert 3 <= stop < self.TESTS
        assert [(t.spec.param, t.outcome, t.predicted) for t in tests] == [
            (t.spec.param, t.outcome, t.predicted) for t in woven[:stop]
        ]
        assert counters["campaign.tests_predicted"] == 2
        if snapshot:
            assert counters["snapshot.forks"] == stop - 2


@pytest.mark.usefixtures("always_fork")  # snapshot.forks == tests on shallow points
class TestWalk:
    """The executor hands the engine its units as one lazily pulled
    stream in execution order, so the fault-free run is paid once per
    executor per ``Campaign.run`` — with results ≡ scratch."""

    TESTS = 10
    stopper = SequentialStopper(ci_width=0.9, min_tests=5)

    @pytest.fixture(scope="class")
    def spread(self, lu_profile):
        """Six points spread over the job, in ``enumerate_points`` order."""
        space = enumerate_points(lu_profile)
        return space[:: len(space) // 6][:6]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_pays_one_fault_free_run_per_executor(
        self, scratch_reference, lu_app, lu_profile, spread, jobs
    ):
        reference = scratch_reference(lu_app, lu_profile, spread, 4, 11, "all")
        metrics = MetricsRegistry()
        campaign = Campaign(
            lu_app, lu_profile, tests_per_point=4, param_policy="all", seed=11,
            jobs=jobs, metrics=metrics,
        )
        assert campaign_signature(campaign.run(spread)) == campaign_signature(reference)
        counters = metrics.to_dict()["counters"]
        assert 1 <= counters["snapshot.misses"] <= jobs
        assert counters["snapshot.forks"] == counters["campaign.tests"] == 6 * 4
        assert "snapshot.hits" not in counters and "snapshot.fallback_tests" not in counters
        if jobs == 1:
            # A second batch on the same Campaign is a second run — not a
            # restart per point — and a retried point comes off the cache.
            campaign.run(spread[:3])
            counters = metrics.to_dict()["counters"]
            assert counters["snapshot.misses"] + counters["snapshot.hits"] == 2
            # exec.unit_s spans pull-to-done: the walk between parks is
            # inside some unit's sample.
            assert metrics.timer("exec.unit_s").count == 9

    def test_stopper_truncates_a_middle_unit_without_leaving_the_run(
        self, scratch_reference, lu_app, lu_profile, spread
    ):
        """Each unit's stream is cut where the scratch stream is, result
        *k* is seen before test *k+1* is drawn, and the units after a
        truncated one are still served by the same fault-free run."""
        reference = scratch_reference(lu_app, lu_profile, spread, self.TESTS, 11, "all")
        reached = lu_profile.comm.execution_key()
        walk = sorted(range(6), key=lambda i: reached(spread[i]))
        state = WorkerState(lu_app, lu_profile, "all", 11, None, True, stopper=self.stopper)
        done = []
        state.run(
            ((WorkUnit(i, 0, self.TESTS), spread[i]) for i in walk),
            lambda *completed: done.append(completed),
        )
        assert [unit_id for unit_id, _, _ in done] == [f"p{i}:t0-{self.TESTS}" for i in walk]
        cuts = []
        for i, (_, tests, _) in zip(walk, done):
            scratch = reference.points[spread[i]].tests
            stop = next(
                (n for n in range(1, self.TESTS) if self.stopper.should_stop(scratch[:n])),
                self.TESTS,
            )
            cuts.append(stop)
            assert [(t.spec, t.outcome, t.detail) for t in tests] == [
                (t.spec, t.outcome, t.detail) for t in scratch[:stop]
            ]
        assert any(stop < self.TESTS for stop in cuts[1:-1])
        merged = MetricsRegistry()
        for _, _, registry in done:
            merged.merge(registry)
        counters = merged.to_dict()["counters"]
        assert counters["snapshot.misses"] == 1
        assert counters["snapshot.forks"] == counters["campaign.tests"] == sum(cuts)
        assert counters["campaign.tests_saved"] == 6 * self.TESTS - sum(cuts)


class TestResume:
    def test_interrupted_campaign_resumes_to_identical_result(
        self, tmp_path, lu_app, lu_profile, lu_points, serial_result
    ):
        """Kill a campaign mid-way; the resumed run must skip the
        completed units and still produce the exact serial result."""
        db = tmp_path / "campaign.db"

        class Killed(RuntimeError):
            pass

        killer = KillSink(Killed("simulated crash"), lambda done, total: done >= total // 2)
        first = MetricsRegistry()
        with pytest.raises(Killed):
            Campaign(
                lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
                db_path=db, progress_sinks=[killer], metrics=first,
            ).run(lu_points)
        units_before_crash = first.to_dict()["counters"]["exec.units"]
        assert units_before_crash > 0

        second = MetricsRegistry()
        resumed = Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            db_path=db, resume=True, metrics=second,
        ).run(lu_points)
        assert campaign_signature(resumed) == campaign_signature(serial_result)
        counters = second.to_dict()["counters"]
        # The resumed run replayed the persisted units instead of re-running.
        assert counters["exec.units_resumed"] >= units_before_crash
        # Whole-point units (snapshot serving, the default): one unit per
        # point carrying all 6 tests.
        assert counters["exec.units"] + counters["exec.units_resumed"] == 4
        # Merged metrics still add up to the full campaign.
        assert counters["campaign.tests"] == 4 * 6

    def test_resume_with_parallel_workers(self, tmp_path, lu_app, lu_profile, lu_points, serial_result):
        db = tmp_path / "campaign.db"
        # Complete only the first 5 units by faking an interrupt.
        count = [0]

        def fifth(done, total):
            count[0] += 1
            return count[0] >= 5

        # snapshot=False selects the point-major layout: 6 tests per
        # point in 2-test units, 12 units in all.
        engine = Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            jobs=1, db_path=db, snapshot=False,
            progress_sinks=[KillSink(RuntimeError("stop"), fifth)],
        )
        with pytest.raises(RuntimeError):
            engine.run(lu_points)

        # Resume under a different worker count — unit layout is stable.
        metrics = MetricsRegistry()
        resumed = Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            jobs=4, db_path=db, snapshot=False, resume=True,
            metrics=metrics,
        ).run(lu_points)
        assert campaign_signature(resumed) == campaign_signature(serial_result)
        counters = metrics.to_dict()["counters"]
        assert counters["exec.units_resumed"] == 5
        assert counters["exec.units"] == 7

    def test_resume_of_complete_checkpoint_runs_nothing(
        self, tmp_path, lu_app, lu_profile, lu_points, serial_result
    ):
        db = tmp_path / "campaign.db"
        Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            jobs=2, db_path=db,
        ).run(lu_points)
        registry = MetricsRegistry()
        replayed = Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            db_path=db, resume=True, metrics=registry,
        ).run(lu_points)
        assert campaign_signature(replayed) == campaign_signature(serial_result)
        counters = registry.to_dict()["counters"]
        assert "exec.units" not in counters  # nothing executed
        assert counters["campaign.tests"] == 4 * 6

    def test_other_snapshot_setting_starts_fresh_row(
        self, tmp_path, lu_app, lu_profile, lu_points, serial_result
    ):
        """--snapshot selects the unit layout, which is part of the
        digest: resuming under the other setting runs a new campaign row
        from scratch and leaves the original row intact."""
        from repro.store import CampaignDB

        db = tmp_path / "campaign.db"
        Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            db_path=db,
        ).run(lu_points)
        registry = MetricsRegistry()
        other = Campaign(
            lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11,
            db_path=db, snapshot=False, resume=True, metrics=registry,
        ).run(lu_points)
        assert campaign_signature(other) == campaign_signature(serial_result)
        counters = registry.to_dict()["counters"]
        assert counters.get("exec.units_resumed", 0) == 0
        assert counters["exec.units"] == 12
        with CampaignDB(db) as cdb:
            rows = cdb.campaigns()
            assert len(rows) == 2
            assert all(r["complete"] for r in rows)
            assert sorted(len(cdb.load_units(r["id"])) for r in rows) == [4, 12]


def test_raising_sink_cannot_skip_the_store_close(
    tmp_path, monkeypatch, lu_app, lu_profile, lu_points
):
    """A sink that raises at every snapshot: the campaign row is left
    incomplete (resumable), and the store's connection and every other
    sink's file are closed."""
    import repro.store
    from repro.obs.progress import JsonlProgressSink
    from repro.store import CampaignDB

    opened = []

    class Store(repro.store.DBCheckpointStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    class Boom(RuntimeError):
        pass

    class Raising:
        def emit(self, snap):
            raise Boom

        def close(self):
            pass

    monkeypatch.setattr(repro.store, "DBCheckpointStore", Store)
    db = tmp_path / "campaign.db"
    jsonl = JsonlProgressSink(str(tmp_path / "progress.jsonl"))
    with pytest.raises(Boom):
        Campaign(
            lu_app, lu_profile, tests_per_point=2, param_policy="all", seed=11,
            db_path=db, progress_sinks=[Raising(), jsonl],
        ).run(lu_points)
    assert [store.closed for store in opened] == [True]
    assert jsonl._fh.closed
    with CampaignDB(db) as cdb:
        assert cdb.campaign()["complete"] == 0


def test_raising_sink_does_not_starve_the_sinks_after_it(tmp_path, lu_app, lu_profile):
    """A sink that raises hands the snapshot on first: the JSONL file
    and the store's ``progress`` table each hold every snapshot that was
    emitted, the one at which the sink raised included."""
    from repro.obs.progress import JsonlProgressSink
    from repro.store import CampaignDB

    class Boom(RuntimeError):
        pass

    class Raising:
        def __init__(self):
            self.seen = []

        def emit(self, snap):
            self.seen.append(snap.seq)
            raise Boom

        def close(self):
            pass

    db, path, raising = tmp_path / "campaign.db", tmp_path / "progress.jsonl", Raising()
    with pytest.raises(Boom):
        Campaign(
            lu_app, lu_profile, tests_per_point=2, param_policy="all", seed=11,
            db_path=db, progress_sinks=[raising, JsonlProgressSink(str(path))],
        ).run(enumerate_points(lu_profile)[:2])
    assert raising.seen
    assert [json.loads(line)["seq"] for line in path.read_text().splitlines()] == raising.seen
    with CampaignDB(db) as cdb:
        assert [r["seq"] for r in cdb.progress_rows(cdb.campaign()["id"])] == raising.seen


def test_resumed_timeline_keeps_both_runs(tmp_path, lu_app, lu_profile):
    """A campaign killed at 10 of 16 tests and resumed: the stored
    timeline holds every row of both runs, in order, and ends on the
    complete count."""
    from repro.store import CampaignDB

    class Killed(RuntimeError):
        pass

    db, points = tmp_path / "campaign.db", enumerate_points(lu_profile)[:8]

    def run(**kwargs):
        Campaign(
            lu_app, lu_profile, tests_per_point=2, param_policy="all", seed=11,
            db_path=db, **kwargs,
        ).run(points)

    with pytest.raises(Killed):
        run(progress_sinks=[KillSink(Killed("halfway"), lambda done, total: done >= 10)])
    with CampaignDB(db) as cdb:
        killed = [dict(r) for r in cdb.progress_rows(cdb.campaign()["id"])]
    assert killed[-1]["done_tests"] == 10
    run(resume=True)
    with CampaignDB(db) as cdb:
        rows = cdb.progress_rows(cdb.campaign()["id"])
    assert [dict(r) for r in rows[: len(killed)]] == killed
    assert [r["seq"] for r in rows] == list(range(1, len(rows) + 1))
    assert len(rows) > len(killed)
    elapsed = [r["elapsed_s"] for r in rows]
    done = [r["done_tests"] for r in rows]
    assert elapsed == sorted(elapsed) and done == sorted(done)
    assert (rows[-1]["done_tests"], rows[-1]["total_tests"]) == (16, 16)


def test_campaign_rejects_bad_jobs(lu_app, lu_profile):
    with pytest.raises(ValueError):
        Campaign(lu_app, lu_profile, jobs=0)
    with pytest.raises(ValueError):
        Campaign(lu_app, lu_profile, progress_every=0)
