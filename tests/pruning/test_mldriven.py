"""ML-driven injection loop tests (§ III-C), run as ``learn()`` runs it:
the steering loop with the seeded ``order`` sampler and no stopper."""

import pytest

from repro.pruning.semantic import select_semantic
from repro.pruning.context import select_context
from repro.steer import adaptive_campaign


def ml_driven(app, profile, points, **kw):
    return adaptive_campaign(
        app, profile, points, sampler_mode="order", ci_width=None, **kw
    )


@pytest.fixture(scope="module")
def lu_points(lu_profile):
    sem = select_semantic(lu_profile)
    ctx = select_context(lu_profile, sem.selected_points_list)
    return ctx.selected_points_list


@pytest.fixture(scope="module")
def ml_result(lu_app, lu_profile, lu_points):
    return ml_driven(
        lu_app,
        lu_profile,
        lu_points,
        accuracy_target=0.5,
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
    if ml_result.reached_target:
        assert ml_result.accuracy_history[-1] >= ml_result.accuracy_target


def test_predicted_labels_valid(ml_result):
    n_labels = len(ml_result.label_names)
    assert all(0 <= v < n_labels for v in ml_result.predicted.values())


def test_custom_labeler_requires_names(lu_app, lu_profile, lu_points):
    with pytest.raises(ValueError):
        ml_driven(
            lu_app, lu_profile, lu_points, labeler=lambda pr: 0, label_names=None
        )
