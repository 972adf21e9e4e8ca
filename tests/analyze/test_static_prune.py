"""--static-prune: skipping statically proven tests must leave the
paper's metrics bit-for-bit identical to the unpruned campaign."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps import make_app
from repro.analyze import PreClassifier, extract_skeleton
from repro.fastfit import FastFIT
from repro.injection import Campaign, enumerate_points
from repro.profiling import profile_application


@pytest.fixture(scope="module")
def is_app():
    return make_app("is", "T")


@pytest.fixture(scope="module")
def is_profile(is_app):
    return profile_application(is_app)


@pytest.fixture(scope="module")
def is_points(is_profile):
    return enumerate_points(is_profile)


@pytest.fixture(scope="module")
def campaigns(is_app, is_profile, is_points):
    """The same campaign run twice: dynamically, and statically pruned."""
    kwargs = dict(tests_per_point=5, param_policy="all", seed=11)
    base = Campaign(is_app, is_profile, **kwargs).run(is_points)
    pre = PreClassifier(extract_skeleton(is_app), seed=11, param_policy="all")
    pruned = Campaign(is_app, is_profile, preclassifier=pre, **kwargs).run(is_points)
    return base, pruned


def _histogram(result):
    return Counter(
        t.outcome for pr in result.points.values() for t in pr.tests
    )


def test_histograms_identical(campaigns):
    base, pruned = campaigns
    assert _histogram(base) == _histogram(pruned)


def test_per_point_outcomes_identical(campaigns):
    """Not just the aggregate: every single test's outcome agrees."""
    base, pruned = campaigns
    for point, pr in base.points.items():
        outcomes = [t.outcome for t in pruned.points[point].tests]
        assert [t.outcome for t in pr.tests] == outcomes


def test_paper_metrics_identical(campaigns):
    base, pruned = campaigns
    assert base.outcome_fractions() == pruned.outcome_fractions()
    assert base.error_rates() == pruned.error_rates()


def test_nonzero_skip_fraction(campaigns):
    base, pruned = campaigns
    assert base.predicted_count() == 0
    skipped = pruned.predicted_count()
    total = sum(len(pr.tests) for pr in pruned.points.values())
    assert 0 < skipped < total


def test_predicted_results_are_marked(campaigns):
    _base, pruned = campaigns
    predicted = [
        t for pr in pruned.points.values() for t in pr.tests if t.predicted
    ]
    assert predicted
    assert all(t.record is None for t in predicted)
    assert all(t.detail.startswith("static:") for t in predicted)


def test_preclassifier_refused_with_parallel_or_store(is_app, is_profile, tmp_path):
    pre = PreClassifier(extract_skeleton(is_app), seed=0)
    with pytest.raises(ValueError, match="static_prune requires a serial in-memory campaign"):
        Campaign(is_app, is_profile, preclassifier=pre, jobs=2)
    with pytest.raises(ValueError, match="static_prune requires a serial in-memory campaign"):
        Campaign(is_app, is_profile, preclassifier=pre, db_path=tmp_path / "c.sqlite")
    with pytest.raises(ValueError, match="static_prune requires a serial in-memory campaign"):
        Campaign(is_app, is_profile, preclassifier=pre, checkpoint_dir=tmp_path / "ck")


def test_fastfit_facade_static_prune(is_app):
    ff = FastFIT(is_app, seed=3, tests_per_point=3, param_policy="all", static_prune=True)
    points = enumerate_points(ff.profile())[:10]
    result = ff.campaign(points=points)
    assert result.predicted_count() > 0
    # The analyze phase was timed, and the classifier is cached.
    assert "phase.analyze_s" in ff.metrics.to_dict()["timers"]
    assert ff.preclassifier() is ff.preclassifier()
