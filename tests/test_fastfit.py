"""FastFIT facade integration tests."""

import pytest

from repro import FastFIT


@pytest.fixture(scope="module")
def ff(lu_app):
    return FastFIT(lu_app, seed=1, tests_per_point=6, param_policy="all")


def test_profile_cached(ff):
    assert ff.profile() is ff.profile()


def test_prune_report(ff):
    rep = ff.prune()
    assert rep.total_points > 0
    assert 0 <= rep.semantic_reduction < 1
    assert 0 <= rep.context_reduction < 1
    assert rep.combined_reduction >= max(0.0, rep.semantic_reduction)
    assert len(rep.representative_points) <= rep.total_points


@pytest.mark.parametrize(
    "option, message",
    [
        ({"tests_per_point": -2}, "tests_per_point must be >= 0, got -2"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"param_policy": "bogus"}, "param_policy 'bogus' is not"),
        ({"jobs": 0}, "jobs must be >= 1, got 0"),
    ],
)
def test_invalid_options_rejected_at_construction(lu_app, option, message):
    """The facade validates its options once, when it is built — not at
    the first draw of the first test."""
    with pytest.raises(ValueError, match=message):
        FastFIT(lu_app, **option)


def test_options_read_through_the_config(lu_app):
    ff2 = FastFIT(lu_app, seed=5, tests_per_point=7, jobs=2)
    assert (ff2.seed, ff2.tests_per_point, ff2.jobs) == (5, 7, 2)
    assert ff2.config.param_policy == ff2.param_policy == "buffer"
    with pytest.raises(AttributeError):
        ff2.no_such_option


def test_for_app_constructor():
    ff2 = FastFIT.for_app("mg", "T", tests_per_point=2)
    assert ff2.app.name == "mg"


def test_run_without_ml(ff):
    report = ff.run(threshold=None)
    assert report.ml is None
    assert report.campaign is not None
    row = report.table3_row()
    assert row["ML"] is None
    assert 0 <= row["Total"] <= 1
    assert "NA" in report.describe()


def test_run_with_ml(lu_app):
    ff = FastFIT(lu_app, seed=2, tests_per_point=4, param_policy="all")
    report = ff.run(threshold=0.4, batch_size=4)
    assert report.ml is not None
    row = report.table3_row()
    assert row["ML"] is not None
    # Total reduction must dominate the static pruning when ML skips tests.
    assert row["Total"] >= report.pruning.combined_reduction - 1e-9
    assert "lu" in report.describe()


def test_campaign_over_custom_points(ff):
    points = ff.prune().representative_points[:3]
    result = ff.campaign(points=points, tests_per_point=3)
    assert len(result.points) == 3


def test_store_backed_steer_counts_each_round_once(tmp_path):
    """Later steering rounds resume the same campaign row; the units an
    earlier round stored are not this round's, so they are neither
    re-merged nor counted as resumed."""
    from repro.apps import make_app

    ff = FastFIT(
        make_app("lammps"), seed=2015, tests_per_point=8,
        db_path=tmp_path / "steer.db",
    )
    res = ff.steer(accuracy_target=0.65, budget=150)
    tests_run = sum(r.tests_run for r in res.rounds)
    assert len(res.rounds) > 1
    counters = ff.metrics.to_dict()["counters"]
    assert counters["campaign.tests"] == tests_run
    assert counters.get("exec.units_resumed", 0) == 0


def test_learn_injects_the_configured_fault_model(lu_app):
    """Campaign options set on the facade reach the learning loop:
    ``FastFIT(fault_model=...).learn()`` injects that model, not the
    default bit flip."""
    ff2 = FastFIT(
        lu_app, seed=0, tests_per_point=2, param_policy="all", fault_model="multibit"
    )
    points = ff2.prune().representative_points[:6]
    # One round covering every point: all tested, none predicted.
    result = ff2.learn(threshold=1.0, batch_size=len(points), points=points)
    assert set(result.tested) == set(points) and not result.predicted
    assert all(
        t.spec.model == "multibit" for pr in result.tested.values() for t in pr.tests
    )
