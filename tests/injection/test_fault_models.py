"""The composable fault-model layer, end to end.

Covers the model catalog contract, ``draw_spec`` byte-stability for the
default single-bit model, campaigns under every selectable model
(serial ↔ parallel ↔ stored), the snapshot engine's full-replay
fallback for non-single-site models, the per-test ``model`` column in
the store, and the TOOL_ERROR exclusion holding for model/scenario
specs.
"""

import sqlite3

import numpy as np
import pytest

from repro.apps import make_app
from repro.exec.checkpoint import campaign_digest
from repro.injection import (
    Campaign,
    FaultSpec,
    SELECTABLE_MODELS,
    draw_spec,
    enumerate_points,
    parse_scenario,
)
from repro.injection.campaign import PointResult
from repro.injection.models import MODELS
from repro.injection.outcome import Outcome
from repro.injection.runner import TestResult as InjectionTestResult
from repro.injection.space import InjectionPoint
from repro.obs.metrics import MetricsRegistry
from repro.profiling import profile_application
from repro.verify.replay import fingerprint

SEED = 11
TESTS = 2

#: ``repro.verify.replay.fingerprint`` of each model's outcome stream in
#: ``test_every_model_runs_end_to_end`` (IS class T, first 2 points x
#: TESTS tests, SEED), taken when bit flips and the other models still
#: had separate spec types.
MODEL_STREAM_PINS = {
    "multibit": "56238988ea96d6b667a5a284b59b53a07d8d284e524e8f685ba10bccf58d18b4",
    "msg_drop": "34f053244003a6cae4856030fd0ca0a6e6037db14473300cb516a343149d8726",
    "msg_dup": "92007b9af7ded82158b473a4d7370a387a82900685cb2903b2805a4d26b55969",
    "msg_reorder": "7c601a48dda8bb758f15362a04ae58a64adc0bffa2a92ef42cf1067eb9c784d1",
    "msg_corrupt": "4c34d48ac9d281a4adbc710a5bb81bdd4333a304607475bc2058fd27cb82866e",
    "rank_crash": "fb2a740ff163ae8199eb457dfcf4ff820e5c08085da8b85a0c90abb7dea44e63",
    "rank_stall": "8d292fa71013afac7b62fa23076c115cb467100dfd40de551128f26dbe717c4b",
}


@pytest.fixture(scope="module")
def is_app():
    return make_app("is", "T")


@pytest.fixture(scope="module")
def is_profile(is_app):
    return profile_application(is_app)


@pytest.fixture(scope="module")
def is_points(is_profile):
    return enumerate_points(is_profile)[:3]


def signature(result):
    sig = []
    for point, pr in result.points.items():
        sig.append((
            point,
            [
                (
                    t.spec.point, t.spec.model,
                    t.spec.param, t.outcome,
                    None if t.record is None else (t.record.kind, t.record.skipped),
                )
                for t in pr.tests
            ],
            pr.error_rate,
        ))
    return sig


class TestCatalog:
    def test_every_model_is_registered_consistently(self):
        for name, model in MODELS.items():
            assert model.name == name
            assert model.kind in ("param", "wire", "rank", "scenario")
            assert callable(model.builder)

    def test_scenario_is_not_directly_selectable(self):
        assert "scenario" in MODELS
        assert "scenario" not in SELECTABLE_MODELS
        assert set(SELECTABLE_MODELS) == set(MODELS) - {"scenario"}

    def test_only_single_site_parameter_models_are_snapshot_safe(self):
        safe = {n for n, m in MODELS.items() if m.snapshot_safe}
        assert safe == {"bitflip", "multibit"}

    def test_only_the_paper_model_is_preclassifiable(self):
        assert [n for n, m in MODELS.items() if m.preclassifiable] == ["bitflip"]


class TestDrawSpec:
    """``draw_spec`` is the one shared RNG contract for every model."""

    def test_bitflip_draw_is_byte_stable(self, is_points):
        """The default model draws the historical bit-flip spec: one
        parameter pick, the bit left to injection time, every other
        knob at its default."""
        point = is_points[0]
        a = draw_spec(point, np.random.default_rng(3), policy="all")
        assert a == FaultSpec(point, a.param, None)
        assert a.model == "bitflip" and a.bit is None

    @pytest.mark.parametrize("model", [m for m in SELECTABLE_MODELS if m != "bitflip"])
    def test_model_draws_are_deterministic(self, is_points, model):
        point = is_points[0]
        a = draw_spec(point, np.random.default_rng(5), policy="all", model=model)
        b = draw_spec(point, np.random.default_rng(5), policy="all", model=model)
        assert a == b
        assert isinstance(a, FaultSpec) and a.model == model


class TestModelCampaigns:
    @pytest.mark.parametrize("model", [m for m in SELECTABLE_MODELS if m != "bitflip"])
    def test_every_model_runs_end_to_end(self, is_app, is_profile, is_points, model):
        result = Campaign(
            is_app, is_profile, tests_per_point=TESTS, param_policy="all",
            seed=SEED, fault_model=model,
        ).run(is_points[:2])
        assert result.n_tests() == 2 * TESTS
        # Every verdict is a Table-I application response — never a
        # harness error leaking out of the delivery layer.
        assert result.tool_error_count() == 0
        stream = [
            (
                (p.rank, p.collective, p.site, p.invocation), t.spec.param,
                None if t.record is None else t.record.bit, t.outcome.name, t.detail,
            )
            for pr in result.points.values()
            for t in pr.tests
            for p in (t.spec.point,)
        ]
        assert fingerprint(stream) == MODEL_STREAM_PINS[model]

    def test_serial_parallel_identical_for_wire_model(self, is_app, is_profile, is_points):
        runs = [
            Campaign(
                is_app, is_profile, tests_per_point=TESTS, param_policy="all",
                seed=SEED, jobs=jobs, fault_model="msg_corrupt",
            ).run(is_points)
            for jobs in (1, 2)
        ]
        assert signature(runs[0]) == signature(runs[1])

    def test_scenario_campaign_runs_on_anchor_point(self, is_app, is_profile):
        scen = parse_scenario({
            "version": 1, "name": "t-drop",
            "tasks": [{"t": 0, "model": "msg_drop", "rank": 0}],
        })
        result = Campaign(
            is_app, is_profile, tests_per_point=TESTS, seed=SEED, scenario=scen,
        ).run([scen.anchor_point()])
        hist = result.outcome_histogram()
        assert hist[Outcome.INF_LOOP] == TESTS  # starved receivers hang

    def test_unknown_model_rejected(self, is_app, is_profile):
        with pytest.raises(ValueError, match="unknown fault model"):
            Campaign(is_app, is_profile, fault_model="bogus")
        with pytest.raises(ValueError, match="unknown fault model"):
            Campaign(is_app, is_profile, fault_model="scenario")

    def test_scenario_and_model_mutually_exclusive(self, is_app, is_profile):
        scen = parse_scenario({
            "version": 1, "name": "x",
            "tasks": [{"t": 0, "model": "msg_drop", "rank": 0}],
        })
        with pytest.raises(ValueError, match="mutually exclusive"):
            Campaign(is_app, is_profile, fault_model="msg_drop", scenario=scen)

    def test_preclassifier_declines_non_bitflip_models(self, is_app, is_profile):
        with pytest.raises(ValueError, match="single-bit"):
            Campaign(is_app, is_profile, fault_model="multibit", preclassifier=object())


class TestSnapshotFallback:
    """Non-single-site models must fall back to full replays — and the
    fallback must be invisible in the results."""

    def test_wire_campaign_identical_with_and_without_snapshot(
        self, is_app, is_profile, is_points
    ):
        metrics = MetricsRegistry()
        snap = Campaign(
            is_app, is_profile, tests_per_point=TESTS, param_policy="all",
            seed=SEED, fault_model="msg_drop", snapshot=True, metrics=metrics,
        ).run(is_points[:2])
        full = Campaign(
            is_app, is_profile, tests_per_point=TESTS, param_policy="all",
            seed=SEED, fault_model="msg_drop", snapshot=False,
        ).run(is_points[:2])
        assert signature(snap) == signature(full)
        # Every test was declined by the engine, not silently forked.
        counters = metrics.to_dict()["counters"]
        assert counters.get("snapshot.fallback_tests", 0) == 2 * TESTS

    def test_multibit_is_snapshot_served(self, is_app, is_profile, is_points):
        metrics = MetricsRegistry()
        Campaign(
            is_app, is_profile, tests_per_point=TESTS, param_policy="all",
            seed=SEED, fault_model="multibit", snapshot=True, metrics=metrics,
        ).run(is_points[:1])
        counters = metrics.to_dict()["counters"]
        assert counters.get("snapshot.fallback_tests", 0) == 0


class TestStore:
    def test_model_recorded_per_test(self, tmp_path, is_app, is_profile, is_points):
        db = tmp_path / "c.sqlite"
        Campaign(
            is_app, is_profile, tests_per_point=TESTS, param_policy="all",
            seed=SEED, fault_model="msg_corrupt", db_path=str(db),
        ).run(is_points[:2])
        conn = sqlite3.connect(db)
        models = dict(
            conn.execute("SELECT model, COUNT(*) FROM results GROUP BY model")
        )
        conn.close()
        assert models == {"msg_corrupt": 2 * TESTS}

    def test_resumed_db_campaign_matches_serial(self, tmp_path, is_app, is_profile, is_points):
        db = tmp_path / "c.sqlite"
        kwargs = dict(
            tests_per_point=TESTS, param_policy="all", seed=SEED,
            fault_model="msg_corrupt",
        )
        first = Campaign(is_app, is_profile, db_path=str(db), **kwargs).run(is_points)
        resumed = Campaign(
            is_app, is_profile, db_path=str(db), resume=True, **kwargs
        ).run(is_points)
        serial = Campaign(is_app, is_profile, **kwargs).run(is_points)
        assert signature(first) == signature(resumed) == signature(serial)


class TestDigest:
    """Default campaigns digest exactly as before the model layer."""

    def test_default_model_is_omitted(self, is_app, is_points):
        base = campaign_digest(is_app, SEED, TESTS, "all", TESTS, list(is_points))
        explicit = campaign_digest(
            is_app, SEED, TESTS, "all", TESTS, list(is_points), fault_model="bitflip"
        )
        assert base == explicit

    def test_model_and_scenario_change_the_digest(self, is_app, is_points):
        base = campaign_digest(is_app, SEED, TESTS, "all", TESTS, list(is_points))
        wire = campaign_digest(
            is_app, SEED, TESTS, "all", TESTS, list(is_points), fault_model="msg_drop"
        )
        scen = campaign_digest(
            is_app, SEED, TESTS, "all", TESTS, list(is_points), scenario_fp="ab" * 8
        )
        assert len({base, wire, scen}) == 3


class TestToolErrorExclusion:
    """The harness-verdict exclusion holds for model and scenario specs."""

    def test_error_rate_excludes_tool_errors_for_model_specs(self):
        point = InjectionPoint(0, "Scenario", "scenario:x", 0)
        pr = PointResult(point)
        spec = FaultSpec(point, param="payload", model="msg_drop")
        for outcome in (Outcome.INF_LOOP, Outcome.SUCCESS, Outcome.TOOL_ERROR):
            pr.add(InjectionTestResult(spec, outcome, None))
        assert pr.n_tool_errors == 1
        assert pr.error_rate == pytest.approx(1 / 2)  # not 1/3, not 2/3
