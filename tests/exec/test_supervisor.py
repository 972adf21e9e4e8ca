"""Chaos tests: the supervised pool under worker death, wedge, and crash.

Harness faults are injected through the ``FASTFIT_CHAOS_*`` environment
hooks read inside worker processes (see
:mod:`repro.exec.supervisor`); with the Linux ``fork`` start method the
monkeypatched environment propagates into freshly spawned workers.
"""

import pytest

from repro.exec.sharding import make_units
from repro.exec.supervisor import SupervisorConfig, UnitFailedError, backoff_delay
from repro.injection import Campaign, CampaignConfig, ConfigError, Outcome, enumerate_points
from repro.obs.events import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.store import CampaignDB
from tests.conftest import KillSink
from tests.exec.test_parallel import campaign_signature, served


@pytest.fixture(scope="module")
def lu_points(lu_profile):
    return enumerate_points(lu_profile)[:4]


@pytest.fixture(scope="module")
def serial_result(lu_app, lu_profile, lu_points):
    return Campaign(
        lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=11
    ).run(lu_points)


def _engine(lu_app, lu_profile, **kwargs):
    kwargs.setdefault("tests_per_point", 6)
    kwargs.setdefault("param_policy", "all")
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("jobs", 2)
    # snapshot=False pins the classic point-major layout (6 tests per
    # point in 2-test units), which is what the FASTFIT_CHAOS_UNITS ids
    # below name; the snapshot default would select whole-point units.
    kwargs.setdefault("snapshot", False)
    return Campaign(lu_app, lu_profile, **kwargs)


class TestSupervisorConfig:
    def test_defaults(self):
        cfg = SupervisorConfig()
        assert cfg.unit_timeout is None
        assert cfg.max_retries == 2
        assert cfg.quarantine is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(unit_timeout=0),
            dict(unit_timeout=-1.0),
            dict(max_retries=-1),
        ],
    )
    def test_validation(self, kwargs):
        """The supervision knobs are checked once, where the campaign
        declares them."""
        with pytest.raises(ConfigError):
            CampaignConfig(**kwargs)

    def test_backoff_is_capped_exponential(self):
        assert backoff_delay(1) == pytest.approx(0.05)
        assert backoff_delay(2) == pytest.approx(0.1)
        assert backoff_delay(3) == pytest.approx(0.2)
        assert backoff_delay(6) == pytest.approx(1.6)
        assert backoff_delay(7) == pytest.approx(2.0)  # capped
        assert backoff_delay(10) == pytest.approx(2.0)


class TestWorkerDeath:
    def test_killed_worker_is_retried_and_campaign_completes(
        self, monkeypatch, lu_app, lu_profile, lu_points, serial_result
    ):
        """A worker that os._exit()s mid-unit loses nothing: the unit is
        re-dispatched and the final result is bit-identical to serial."""
        monkeypatch.setenv("FASTFIT_CHAOS_MODE", "exit")
        monkeypatch.setenv("FASTFIT_CHAOS_UNITS", "p0:t0-2,p2:t2-4")
        monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "1")
        metrics = MetricsRegistry()
        engine = _engine(lu_app, lu_profile, metrics=metrics)
        result = engine.run(lu_points)
        assert campaign_signature(result) == campaign_signature(serial_result)
        counters = metrics.to_dict()["counters"]
        assert counters["exec.worker_deaths"] == 2
        assert counters["exec.retries"] == 2
        assert "exec.quarantined" not in counters
        assert engine.quarantined == []

    def test_in_worker_crash_is_retried_without_killing_the_slot(
        self, monkeypatch, lu_app, lu_profile, lu_points, serial_result
    ):
        """A Python-level crash in the worker is reported over the pipe —
        the process survives, only the unit is retried."""
        monkeypatch.setenv("FASTFIT_CHAOS_MODE", "raise")
        monkeypatch.setenv("FASTFIT_CHAOS_UNITS", "p1:t0-2")
        monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "1")
        metrics = MetricsRegistry()
        result = _engine(lu_app, lu_profile, metrics=metrics).run(lu_points)
        assert campaign_signature(result) == campaign_signature(serial_result)
        counters = metrics.to_dict()["counters"]
        assert counters["exec.retries"] == 1
        assert "exec.worker_deaths" not in counters

    @pytest.mark.parametrize("mode", ["exit", "raise"])
    def test_chaos_on_a_mid_walk_unit_heals(
        self, monkeypatch, always_fork, scratch_reference, lu_app, lu_profile, mode
    ):
        """Snapshot serving: each worker walks one fault-free run through
        the units it is handed.  A harness fault on the 4th unit in
        execution order hits a worker parked mid-walk — while it pulls
        the unit, after the previous one was reported — and costs that
        unit one retry: nothing reported is lost, nothing else reruns."""
        space = enumerate_points(lu_profile)
        points = space[:: len(space) // 6][:6]
        reached = lu_profile.comm.execution_key()
        victim = sorted(range(6), key=lambda i: reached(points[i]))[3]
        monkeypatch.setenv("FASTFIT_CHAOS_MODE", mode)
        monkeypatch.setenv("FASTFIT_CHAOS_UNITS", f"p{victim}:t0-4")
        monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "1")
        metrics = MetricsRegistry()
        result = _engine(
            lu_app, lu_profile, tests_per_point=4, snapshot=True, metrics=metrics
        ).run(points)
        reference = scratch_reference(lu_app, lu_profile, points, 4, 11, "all")
        assert campaign_signature(result) == campaign_signature(reference)
        counters = metrics.to_dict()["counters"]
        assert counters["exec.retries"] == 1
        assert counters.get("exec.worker_deaths", 0) == (1 if mode == "exit" else 0)
        assert "exec.quarantined" not in counters
        assert counters["exec.units"] == 6
        assert served(counters) == counters["campaign.tests"] == 6 * 4
        assert "snapshot.fallback_tests" not in counters

    def test_wedged_worker_is_killed_at_the_deadline(
        self, monkeypatch, lu_app, lu_profile, lu_points, serial_result
    ):
        """A worker hanging inside a unit blows the wall-clock deadline,
        is killed, and the unit succeeds on retry."""
        monkeypatch.setenv("FASTFIT_CHAOS_MODE", "hang")
        monkeypatch.setenv("FASTFIT_CHAOS_UNITS", "p3:t4-6")
        monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "1")
        metrics = MetricsRegistry()
        engine = _engine(
            lu_app, lu_profile, metrics=metrics, unit_timeout=3.0
        )
        result = engine.run(lu_points)
        assert campaign_signature(result) == campaign_signature(serial_result)
        counters = metrics.to_dict()["counters"]
        assert counters["exec.worker_deaths"] == 1
        assert counters["exec.retries"] == 1


class TestQuarantine:
    def test_persistently_crashing_unit_is_quarantined(
        self, monkeypatch, lu_app, lu_profile, lu_points, serial_result
    ):
        """A unit that kills its worker every time is recorded as
        synthetic TOOL_ERROR results; everything else is untouched."""
        monkeypatch.setenv("FASTFIT_CHAOS_MODE", "exit")
        monkeypatch.setenv("FASTFIT_CHAOS_UNITS", "p1:t2-4")
        monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "all")
        metrics = MetricsRegistry()
        tracer = Tracer()
        engine = _engine(
            lu_app, lu_profile, metrics=metrics, max_retries=1, tracer=tracer
        )
        result = engine.run(lu_points)

        assert engine.quarantined == ["p1:t2-4"]
        assert result.n_tests() == len(lu_points) * 6
        assert result.tool_error_count() == 2
        quarantined_pr = result.points[lu_points[1]]
        bad = [t for t in quarantined_pr.tests if t.outcome is Outcome.TOOL_ERROR]
        assert len(bad) == 2
        assert all("quarantined" in t.detail for t in bad)
        assert all(t.record is None for t in bad)

        # The synthetic specs still name the injections that were
        # abandoned — same deterministic derivation as a real worker.
        reference = serial_result.points[lu_points[1]].tests
        for synth, real in zip(quarantined_pr.tests, reference):
            assert synth.spec.point == real.spec.point
            assert synth.spec.param == real.spec.param

        # Every *other* point is bit-identical to the serial run.
        for i, point in enumerate(lu_points):
            if i == 1:
                continue
            assert [t.outcome for t in result.points[point].tests] == [
                t.outcome for t in serial_result.points[point].tests
            ]

        counters = metrics.to_dict()["counters"]
        assert counters["exec.quarantined"] == 1
        assert counters["exec.retries"] == 1
        assert counters["exec.worker_deaths"] == 2
        assert counters["campaign.outcome.TOOL_ERROR"] == 2

        retry_events = tracer.events("unit_retry")
        quarantine_events = tracer.events("unit_quarantined")
        assert len(retry_events) == 1
        assert len(quarantine_events) == 1
        assert quarantine_events[0].data["unit"] == "p1:t2-4"

    def test_tool_errors_excluded_from_paper_metrics(
        self, monkeypatch, lu_app, lu_profile, lu_points, serial_result
    ):
        """TOOL_ERROR never appears in the six-class histogram, never
        wins majority_outcome, and drops out of error_rate entirely."""
        monkeypatch.setenv("FASTFIT_CHAOS_MODE", "exit")
        monkeypatch.setenv("FASTFIT_CHAOS_UNITS", "p0:t0-2,p0:t2-4,p0:t4-6")
        monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "all")
        engine = _engine(lu_app, lu_profile, max_retries=0)
        result = engine.run(lu_points)

        hist = result.outcome_histogram()
        assert Outcome.TOOL_ERROR not in hist
        assert sum(hist.values()) == (len(lu_points) - 1) * 6
        assert result.tool_error_count() == 6

        pr = result.points[lu_points[0]]
        assert pr.n_tool_errors == 6
        assert pr.error_rate == 0.0  # no application responses at all
        assert pr.majority_outcome() in list(hist)

    def test_quarantine_disabled_aborts_the_campaign(
        self, monkeypatch, lu_app, lu_profile, lu_points
    ):
        monkeypatch.setenv("FASTFIT_CHAOS_MODE", "raise")
        monkeypatch.setenv("FASTFIT_CHAOS_UNITS", "p0:t0-2")
        monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "all")
        engine = _engine(lu_app, lu_profile, max_retries=0, quarantine=False)
        with pytest.raises(UnitFailedError) as err:
            engine.run(lu_points)
        assert err.value.unit_id == "p0:t0-2"


def _stored(path):
    """Completion flag, completed and quarantined unit ids of the one
    campaign stored in database ``path``."""
    with CampaignDB(path) as db:
        row = db.campaign()
        return {
            "complete": bool(row["complete"]),
            "completed": sorted(db.load_units(row["id"])),
            "quarantined": [r["unit_id"] for r in db.quarantine_records(row["id"])],
        }


class TestQuarantineResume:
    def test_quarantined_unit_is_retried_on_resume(
        self, monkeypatch, tmp_path, lu_app, lu_profile, lu_points, serial_result
    ):
        """Quarantined units are deliberately not checkpointed: a resumed
        campaign (with the fault gone) heals to the full serial result."""
        monkeypatch.setenv("FASTFIT_CHAOS_MODE", "exit")
        monkeypatch.setenv("FASTFIT_CHAOS_UNITS", "p2:t0-2")
        monkeypatch.setenv("FASTFIT_CHAOS_ATTEMPTS", "all")
        db = tmp_path / "campaign.db"
        first = _engine(lu_app, lu_profile, max_retries=0, db_path=db)
        first.run(lu_points)
        assert first.quarantined == ["p2:t0-2"]

        stored = _stored(db)
        assert stored["quarantined"] == ["p2:t0-2"]
        assert stored["complete"] is False
        assert "p2:t0-2" not in stored["completed"]

        # The environmental fault clears; resume retries only that unit.
        monkeypatch.delenv("FASTFIT_CHAOS_MODE")
        metrics = MetricsRegistry()
        second = _engine(lu_app, lu_profile, db_path=db, resume=True, metrics=metrics)
        healed = second.run(lu_points)
        assert second.quarantined == []
        assert campaign_signature(healed) == campaign_signature(serial_result)
        counters = metrics.to_dict()["counters"]
        n_units = len(make_units(len(lu_points), 6))
        assert counters["exec.units_resumed"] == n_units - 1
        assert counters["exec.units"] == 1
        stored = _stored(db)
        assert stored["complete"] is True
        assert stored["quarantined"] == []


class TestKeyboardInterrupt:
    def test_interrupt_flushes_checkpoint_and_reraises(
        self, tmp_path, lu_app, lu_profile, lu_points
    ):
        """Ctrl-C mid-campaign: the pool is torn down, the campaign row
        is marked incomplete, and the run resumes cleanly afterwards."""
        db = tmp_path / "campaign.db"
        engine = _engine(
            lu_app, lu_profile, db_path=db,
            progress_sinks=[KillSink(KeyboardInterrupt())], progress_every=1,
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(lu_points)

        stored = _stored(db)
        assert stored["complete"] is False
        assert len(stored["completed"]) >= 1

        resumed = _engine(lu_app, lu_profile, db_path=db, resume=True).run(lu_points)
        assert resumed.n_tests() == len(lu_points) * 6
        assert _stored(db)["complete"] is True
