"""Seeded end-to-end pins for the adaptive steering driver.

One module-scoped adaptive campaign over the LU kernel is pinned down to
its exact trajectory — rounds, batch composition, test counts, curve —
so any change to the sampler, the stopper, or the batch/seed plumbing
shows up as a concrete diff against known-good numbers rather than a
statistical wobble.
"""

import pytest

from repro.injection import OUTCOME_ORDER
from repro.injection.space import enumerate_points
from repro.pruning import level_labeler, outcome_labeler, select_semantic
from repro.steer import SteeringResult, adaptive_campaign, tests_to_close

TESTS_PER_POINT = 12
BATCH_SIZE = 4
SEED = 7
CI_WIDTH = 0.3
N_POINTS = 12


@pytest.fixture(scope="module")
def lu_points(lu_profile):
    return enumerate_points(lu_profile)[:N_POINTS]


@pytest.fixture(scope="module")
def adaptive_result(lu_app, lu_profile, lu_points) -> SteeringResult:
    return adaptive_campaign(
        lu_app,
        lu_profile,
        lu_points,
        tests_per_point=TESTS_PER_POINT,
        batch_size=BATCH_SIZE,
        ci_width=CI_WIDTH,
        seed=SEED,
        param_policy="all",
    )


class TestPinnedTrajectory:
    """Exact numbers from the seeded run — the statistical pins."""

    def test_round_count_and_stop_reason(self, adaptive_result):
        assert len(adaptive_result.rounds) == 2
        assert adaptive_result.stop_reason == "accuracy"
        assert adaptive_result.reached_target

    def test_tested_predicted_split(self, adaptive_result, lu_points):
        assert len(adaptive_result.tested) == 8
        assert len(adaptive_result.predicted) == 4
        assert adaptive_result.total_points == N_POINTS
        # Disjoint cover of the candidate set.
        tested = set(adaptive_result.tested)
        predicted = set(adaptive_result.predicted)
        assert not tested & predicted
        assert tested | predicted == set(lu_points)

    def test_budget_curve_pin(self, adaptive_result):
        assert adaptive_result.tests_run == 93
        assert adaptive_result.tests_saved == 3
        assert adaptive_result.curve() == [(93, 0.75)]
        assert adaptive_result.final_accuracy == 0.75

    def test_stopper_actually_saved_tests(self, adaptive_result):
        # Every round plans the full per-point budget; the sequential
        # stopper must close at least one degenerate point early.
        for r in adaptive_result.rounds:
            assert r.tests_planned == len(r.point_indices) * TESTS_PER_POINT
        assert adaptive_result.tests_saved > 0
        # No point can close in fewer than the closed-form floor.
        floor = tests_to_close(CI_WIDTH)
        for pr in adaptive_result.tested.values():
            assert floor <= len(pr.tests) <= TESTS_PER_POINT

    def test_later_rounds_carry_uncertainty(self, adaptive_result):
        first, second = adaptive_result.rounds
        assert first.round_no == 0
        assert first.accuracy is None and first.mean_uncertainty is None
        assert second.accuracy == 0.75
        assert second.mean_uncertainty is not None
        assert 0.0 <= second.mean_uncertainty <= 1.0

    def test_batches_are_disjoint_global_indices(self, adaptive_result):
        seen = set()
        for r in adaptive_result.rounds:
            batch = set(r.point_indices)
            assert len(batch) == len(r.point_indices)
            assert not batch & seen
            assert all(0 <= i < N_POINTS for i in batch)
            seen |= batch

    def test_rerun_is_bit_identical(self, adaptive_result, lu_app, lu_profile, lu_points):
        again = adaptive_campaign(
            lu_app,
            lu_profile,
            lu_points,
            tests_per_point=TESTS_PER_POINT,
            batch_size=BATCH_SIZE,
            ci_width=CI_WIDTH,
            seed=SEED,
            param_policy="all",
        )
        assert again.rounds == adaptive_result.rounds
        assert again.curve() == adaptive_result.curve()
        assert again.predicted == adaptive_result.predicted
        assert set(again.tested) == set(adaptive_result.tested)
        for pt, pr in adaptive_result.tested.items():
            assert [t.outcome for t in again.tested[pt].tests] == [
                t.outcome for t in pr.tests
            ]


class TestBudget:
    """The budget is a hard ceiling: never exceeded, whatever the path."""

    @pytest.mark.parametrize("budget", [12, 24, 40, 60])
    def test_budget_never_exceeded(self, lu_app, lu_profile, lu_points, budget):
        r = adaptive_campaign(
            lu_app,
            lu_profile,
            lu_points,
            tests_per_point=TESTS_PER_POINT,
            batch_size=BATCH_SIZE,
            ci_width=CI_WIDTH,
            seed=SEED,
            param_policy="all",
            budget=budget,
        )
        assert r.tests_run <= budget
        assert r.stop_reason in ("budget", "accuracy", "exhausted")

    def test_tight_budget_stops_with_budget_reason(self, lu_app, lu_profile, lu_points):
        # One affordable point in round 0, none in round 1: the driver
        # must report "budget" without ever reaching verification.
        r = adaptive_campaign(
            lu_app,
            lu_profile,
            lu_points,
            tests_per_point=TESTS_PER_POINT,
            batch_size=BATCH_SIZE,
            ci_width=CI_WIDTH,
            seed=SEED,
            param_policy="all",
            budget=TESTS_PER_POINT,
        )
        assert r.stop_reason == "budget"
        assert not r.reached_target
        assert len(r.tested) == 1
        assert r.tests_run <= TESTS_PER_POINT
        assert r.curve() == []

    def test_budget_validation(self, lu_app, lu_profile, lu_points):
        with pytest.raises(ValueError):
            adaptive_campaign(
                lu_app, lu_profile, lu_points, budget=0, tests_per_point=4
            )


class TestExhaustion:
    def test_unreachable_target_degenerates_to_full_campaign(
        self, lu_app, lu_profile, lu_points
    ):
        # With an unreachable 100% target the loop tests everything —
        # the paper's worst case: adaptive degenerates to traditional.
        r = adaptive_campaign(
            lu_app,
            lu_profile,
            lu_points[:8],
            tests_per_point=TESTS_PER_POINT,
            batch_size=3,
            ci_width=CI_WIDTH,
            seed=SEED,
            param_policy="all",
            accuracy_target=1.0,
        )
        if not r.reached_target:
            assert r.stop_reason == "exhausted"
            assert len(r.tested) == 8
            assert not r.predicted
        assert set(r.tested) | set(r.predicted) == set(lu_points[:8])

    def test_one_round_over_every_point_predicts_nothing(
        self, lu_app, lu_profile, lu_points
    ):
        # learn()'s configuration with a batch covering the whole pool:
        # the seed round injects everything, so no model ever verifies.
        r = adaptive_campaign(
            lu_app,
            lu_profile,
            lu_points[:8],
            sampler_mode="order",
            ci_width=None,
            tests_per_point=4,
            batch_size=8,
            seed=0,
            param_policy="all",
        )
        assert len(r.rounds) == 1 and r.stop_reason == "exhausted"
        assert len(r.tested) == 8 and not r.predicted
        assert not r.reached_target and r.accuracy_history == []
        assert r.tests_run == 8 * 4 and r.tests_saved == 0


class TestTable3MLColumn:
    def test_lammps_ml_reduction(self, lammps_app, lammps_profile):
        """Table III's ML column: the learning loop over the mini-LAMMPS
        semantic survivors skips 19 of 31 points (61.29 %)."""
        survivors = select_semantic(lammps_profile).selected_points_list
        r = adaptive_campaign(
            lammps_app,
            lammps_profile,
            survivors,
            sampler_mode="order",
            ci_width=None,
            accuracy_target=0.65,
            tests_per_point=10,
            batch_size=6,
            param_policy="buffer",
            seed=33,
        )
        assert r.total_points == 31
        assert r.test_reduction == 19 / 31
        assert r.reached_target


def test_labelers():
    _, names = level_labeler()
    assert names == ("low", "medium-low", "medium-high", "high")
    _, names = outcome_labeler()
    assert names == tuple(o.value for o in OUTCOME_ORDER)


class TestValidation:
    def test_bad_arguments(self, lu_app, lu_profile, lu_points):
        with pytest.raises(ValueError):
            adaptive_campaign(lu_app, lu_profile, [])
        with pytest.raises(ValueError):
            adaptive_campaign(lu_app, lu_profile, lu_points, accuracy_target=0.0)
        with pytest.raises(ValueError):
            adaptive_campaign(lu_app, lu_profile, lu_points, accuracy_target=1.5)
        with pytest.raises(ValueError):
            adaptive_campaign(lu_app, lu_profile, lu_points, sampler_mode="random")
        with pytest.raises(ValueError):
            adaptive_campaign(
                lu_app, lu_profile, lu_points, labeler=lambda pr: 0
            )  # labeler without label_names
