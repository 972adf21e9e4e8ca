"""Fault-outcome pre-classification: determinism, rule hygiene, and
spot-checks of individual rules against the simulator's real semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import make_app
from repro.analyze import (
    PRECLASSIFY_RULES,
    PreClassifier,
    predict_tests,
    skeleton_from_profile,
)
from repro.injection import FaultSpec, InjectionRunner, enumerate_points
from repro.injection.outcome import Outcome
from repro.profiling import profile_application


@pytest.fixture(scope="module")
def is_app():
    return make_app("is", "T")


@pytest.fixture(scope="module")
def is_profile(is_app):
    return profile_application(is_app)


@pytest.fixture(scope="module")
def is_skeleton(is_profile):
    return skeleton_from_profile(is_profile)


def _classifier(skeleton, seed=0, policy="all"):
    return PreClassifier(skeleton, seed=seed, param_policy=policy)


def test_predictions_use_registered_rules_only(is_skeleton, is_profile):
    pre = _classifier(is_skeleton)
    points = enumerate_points(is_profile)
    n_predicted = 0
    for _i, _t, _point, prediction in predict_tests(pre, points, 6):
        if prediction is None:
            continue
        n_predicted += 1
        assert prediction.rule in PRECLASSIFY_RULES
        assert isinstance(prediction.outcome, Outcome)
        assert prediction.param
    assert n_predicted > 0


def test_prediction_is_deterministic(is_skeleton, is_profile):
    points = enumerate_points(is_profile)
    a = list(predict_tests(_classifier(is_skeleton), points, 4))
    b = list(predict_tests(_classifier(is_skeleton), points, 4))
    assert a == b


def test_unknown_point_is_not_predicted(is_skeleton, is_profile):
    """A point the skeleton never saw must fall through to dynamic."""
    pre = _classifier(is_skeleton)
    point = enumerate_points(is_profile)[0]
    import dataclasses

    ghost = dataclasses.replace(point, site="nowhere.py:1")
    assert pre.predict(ghost, 0, 0) is None


def test_seed_changes_predictions_with_draws(is_skeleton, is_profile):
    """The classifier replays the campaign rng: different seeds pick
    different targets, so the prediction stream must differ somewhere."""
    points = enumerate_points(is_profile)
    a = [p for *_x, p in predict_tests(_classifier(is_skeleton, seed=0), points, 6)]
    b = [p for *_x, p in predict_tests(_classifier(is_skeleton, seed=9), points, 6)]
    assert a != b


def _spot_check(app, profile, skeleton, wanted_rule, seed=0, tests=12):
    """Find a prediction carrying ``wanted_rule`` and replay it live."""
    pre = _classifier(skeleton, seed=seed)
    runner = InjectionRunner(app, profile)
    points = enumerate_points(profile)
    for i, t, point, prediction in predict_tests(pre, points, tests):
        if prediction is None or prediction.rule != wanted_rule:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(i, t))
        )
        from repro.injection.targets import pick_target

        param = pick_target(rng, point.collective, "all")
        assert param == prediction.param
        result = runner.run_one(FaultSpec(point, param, None), rng)
        assert result.outcome is prediction.outcome, (
            f"{wanted_rule}: predicted {prediction.outcome}, "
            f"got {result.outcome}: {result.detail}"
        )
        return
    pytest.skip(f"no {wanted_rule} prediction in the sampled slice")


@pytest.mark.parametrize(
    "rule",
    [
        "unmapped-handle",
        "corrupted-handle",
        "root-out-of-range",
        "negative-count",
        "oob-eager-read",
        "truncate-only-param",
    ],
)
def test_rule_spot_checks_against_simulator(is_app, is_profile, is_skeleton, rule):
    _spot_check(is_app, is_profile, is_skeleton, rule)
