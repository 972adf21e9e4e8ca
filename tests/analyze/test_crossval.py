"""Static-vs-dynamic cross-validation: the referee for the whole
pre-classification rule set.  Zero mismatches is the contract."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import make_app
from repro.analyze import cross_validate
from repro.profiling import profile_application


@pytest.fixture(scope="module")
def is_app():
    return make_app("is", "T")


@pytest.fixture(scope="module")
def is_cv(is_app):
    return cross_validate(is_app, seed=0, tests_per_point=6, sample=1.0)


def test_zero_mismatches(is_cv):
    assert is_cv.ok
    assert is_cv.mismatches == []


def test_predictions_actually_checked(is_cv):
    assert is_cv.n_predicted > 0
    assert is_cv.n_checked == is_cv.n_predicted  # sample=1.0 checks all
    assert 0.0 < is_cv.coverage < 1.0
    assert sum(is_cv.rules.values()) == is_cv.n_predicted


def test_sampling_is_a_deterministic_stride(is_app):
    half = cross_validate(is_app, seed=0, tests_per_point=4, sample=0.5)
    full = cross_validate(is_app, seed=0, tests_per_point=4, sample=1.0)
    assert half.n_predicted == full.n_predicted
    assert 0 < half.n_checked < full.n_checked
    assert half.ok and full.ok


def test_bad_sample_rejected(is_app):
    with pytest.raises(ValueError, match="sample"):
        cross_validate(is_app, sample=0.0)
    with pytest.raises(ValueError, match="sample"):
        cross_validate(is_app, sample=1.5)


def test_dirty_skeleton_refused(is_app):
    """The truncate rules assume a checker-clean skeleton; a dirty one
    must be refused, not silently mispredicted."""
    profile = profile_application(is_app)
    calls = profile.comm.calls
    for i, call in enumerate(calls):
        if call.rank == 1 and call.root_world is not None:
            calls[i] = dataclasses.replace(
                call, root_world=(call.root_world + 1) % profile.nranks
            )
            break
    else:
        pytest.skip("no rooted collectives")
    with pytest.raises(ValueError, match="matching checker"):
        cross_validate(is_app, profile=profile)


def test_describe_is_informative(is_cv):
    text = is_cv.describe()
    assert "cross-validation" in text
    assert "mismatches: 0" in text
