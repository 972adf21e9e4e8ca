"""ML-driven injection loop tests (§ III-C)."""

import pytest

from repro.injection import OUTCOME_ORDER
from repro.pruning import level_labeler, ml_driven_campaign, outcome_labeler
from repro.pruning.semantic import select_semantic
from repro.pruning.context import select_context


@pytest.fixture(scope="module")
def lu_points(lu_profile):
    sem = select_semantic(lu_profile)
    ctx = select_context(lu_profile, sem.selected_points_list)
    return ctx.selected_points_list


@pytest.fixture(scope="module")
def ml_result(lu_app, lu_profile, lu_points):
    return ml_driven_campaign(
        lu_app,
        lu_profile,
        lu_points,
        threshold=0.5,
        tests_per_point=8,
        batch_size=4,
        param_policy="all",
        seed=0,
    )


def test_every_point_tested_or_predicted(ml_result, lu_points):
    assert ml_result.total_points == len(lu_points)
    tested = set(ml_result.tested)
    predicted = set(ml_result.predicted)
    assert tested | predicted == set(lu_points)
    assert tested & predicted == set()


def test_reduction_in_unit_interval(ml_result):
    assert 0.0 <= ml_result.test_reduction < 1.0


def test_model_trained(ml_result):
    assert ml_result.model is not None
    assert ml_result.model.trees


def test_accuracy_history_recorded(ml_result):
    if ml_result.reached_threshold:
        assert ml_result.accuracy_history[-1] >= ml_result.threshold


def test_predicted_labels_valid(ml_result):
    n_labels = len(ml_result.label_names)
    assert all(0 <= v < n_labels for v in ml_result.predicted.values())


def test_threshold_one_tests_everything(lu_app, lu_profile, lu_points):
    """An unreachable threshold degenerates to the traditional
    campaign: every point is tested, none predicted."""
    result = ml_driven_campaign(
        lu_app,
        lu_profile,
        lu_points[:8],
        threshold=1.01,
        tests_per_point=4,
        batch_size=4,
        param_policy="all",
        seed=0,
    )
    assert len(result.predicted) == 0
    assert len(result.tested) == 8
    assert not result.reached_threshold


def test_labelers():
    lab, names = level_labeler()
    assert names == ("low", "medium-low", "medium-high", "high")
    lab2, names2 = outcome_labeler()
    assert names2 == tuple(o.value for o in OUTCOME_ORDER)


def test_custom_labeler_requires_names(lu_app, lu_profile, lu_points):
    with pytest.raises(ValueError):
        ml_driven_campaign(
            lu_app, lu_profile, lu_points, labeler=lambda pr: 0, label_names=None
        )


def test_deterministic_given_seed(lu_app, lu_profile, lu_points):
    kw = dict(threshold=0.5, tests_per_point=4, batch_size=4, param_policy="all", seed=11)
    a = ml_driven_campaign(lu_app, lu_profile, lu_points[:8], **kw)
    b = ml_driven_campaign(lu_app, lu_profile, lu_points[:8], **kw)
    assert a.predicted == b.predicted
    assert a.accuracy_history == b.accuracy_history


def test_fault_model_reaches_every_test(lu_app, lu_points):
    """Campaign options set on the facade reach the ML-driven loop:
    ``FastFIT(fault_model=...).learn()`` injects that model, not the
    default bit flip it used to fall back to silently."""
    from repro import FastFIT

    ff = FastFIT(
        lu_app, seed=0, tests_per_point=2, param_policy="all",
        fault_model="multibit",
    )
    result = ff.learn(threshold=1.01, batch_size=8)
    assert result.tested and not result.predicted
    assert all(
        t.spec.model == "multibit"
        for pr in result.tested.values()
        for t in pr.tests
    )


def test_ml_digest_covers_the_fault_model(tmp_path, lu_app, lu_profile, lu_points):
    """The ML store identity hashes the fault model the way the adaptive
    one does, and the default (bitflip) digest is byte-for-byte the one
    the pre-refactor driver computed — existing DBs keep resuming."""
    from repro.exec import campaign_digest
    from repro.store.db import CampaignDB

    points = lu_points[:4]
    kw = dict(threshold=1.01, tests_per_point=2, batch_size=4, param_policy="all", seed=3)
    extra = {"ml": {"threshold": 1.01, "batch_size": 4, "n_estimators": 24}}

    def legacy_digest(**more):
        return campaign_digest(
            lu_app, 3, 2, "all", 2, points, layout="s1", extra=extra, **more
        )

    db_path = tmp_path / "ml.db"
    ml_driven_campaign(lu_app, lu_profile, points, db_path=db_path, **kw)
    ml_driven_campaign(
        lu_app, lu_profile, points, db_path=db_path, fault_model="multibit", **kw
    )
    with CampaignDB(db_path) as db:
        assert db.campaign_id(legacy_digest()) is not None
        assert db.campaign_id(legacy_digest(fault_model="multibit")) is not None
        assert len(db.campaigns()) == 2
