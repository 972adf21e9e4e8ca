"""Injection runner and campaign tests (uses session-scoped campaigns)."""

import numpy as np
import pytest

from repro.injection import (
    Campaign,
    FaultSpec,
    InjectionPoint,
    InjectionRunner,
    Outcome,
    OUTCOME_ORDER,
    enumerate_points,
)
from tests.conftest import ProgressLog


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self, lu_app, lu_profile):
        return InjectionRunner(lu_app, lu_profile)

    def test_budget_calibrated_from_golden(self, runner, lu_profile):
        assert runner.step_budget >= lu_profile.golden_steps

    def test_recvbuf_fault_is_usually_benign(self, runner, lu_profile):
        """Faults in recvbuf are overwritten by the collective (Fig. 9)."""
        point = next(
            p for p in enumerate_points(lu_profile) if p.collective == "Allreduce"
        )
        outcomes = [
            runner.run_one(
                FaultSpec(point, "recvbuf", None), np.random.default_rng(i)
            ).outcome
            for i in range(6)
        ]
        assert outcomes.count(Outcome.SUCCESS) >= 5

    def test_handle_fault_is_fatal(self, runner, lu_profile):
        point = next(
            p for p in enumerate_points(lu_profile) if p.collective == "Allreduce"
        )
        res = runner.run_one(FaultSpec(point, "comm", 45), np.random.default_rng(0))
        assert res.outcome in (Outcome.SEG_FAULT, Outcome.MPI_ERR)
        assert res.injected

    def test_unmatched_point_reports_success_without_injection(self, runner):
        ghost = InjectionPoint(0, "Allreduce", "ghost.py:1", 0)
        res = runner.run_one(FaultSpec(ghost, "sendbuf", 0), np.random.default_rng(0))
        assert res.outcome is Outcome.SUCCESS
        assert not res.injected

    def test_same_seed_same_outcome(self, runner, lu_profile):
        point = enumerate_points(lu_profile)[0]
        spec = FaultSpec(point, "count", None)
        a = runner.run_one(spec, np.random.default_rng(123)).outcome
        b = runner.run_one(spec, np.random.default_rng(123)).outcome
        assert a == b


class TestCampaign:
    def test_point_results_have_requested_tests(self, lu_small_campaign):
        for pr in lu_small_campaign.points.values():
            assert pr.n_tests == lu_small_campaign.tests_per_point

    def test_histogram_sums_to_total(self, lu_small_campaign):
        hist = lu_small_campaign.outcome_histogram()
        assert sum(hist.values()) == len(lu_small_campaign.all_tests())
        assert set(hist) == set(OUTCOME_ORDER)

    def test_fractions_sum_to_one(self, lu_small_campaign):
        assert sum(lu_small_campaign.outcome_fractions().values()) == pytest.approx(1.0)

    def test_error_rate_consistent(self, lu_small_campaign):
        for pr in lu_small_campaign.points.values():
            errors = sum(1 for t in pr.tests if t.outcome is not Outcome.SUCCESS)
            assert pr.error_rate == pytest.approx(errors / pr.n_tests)

    def test_by_collective_partition(self, lu_small_campaign):
        split = lu_small_campaign.by_collective()
        total = sum(len(c.points) for c in split.values())
        assert total == len(lu_small_campaign.points)

    def test_by_param_covers_all_tests(self, lu_small_campaign):
        per_param = lu_small_campaign.by_param()
        assert sum(sum(h.values()) for h in per_param.values()) == len(
            lu_small_campaign.all_tests()
        )

    def test_majority_outcome_is_a_real_outcome(self, lu_small_campaign):
        for pr in lu_small_campaign.points.values():
            assert pr.majority_outcome() in OUTCOME_ORDER

    def test_campaign_is_reproducible(self, lu_app, lu_profile):
        points = enumerate_points(lu_profile)[:2]
        a = Campaign(lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=9).run(points)
        b = Campaign(lu_app, lu_profile, tests_per_point=6, param_policy="all", seed=9).run(points)
        assert [t.outcome for t in a.all_tests()] == [t.outcome for t in b.all_tests()]

    def test_different_seed_differs_in_faults(self, lu_app, lu_profile):
        points = enumerate_points(lu_profile)[:1]
        a = Campaign(lu_app, lu_profile, tests_per_point=8, param_policy="all", seed=1).run(points)
        b = Campaign(lu_app, lu_profile, tests_per_point=8, param_policy="all", seed=2).run(points)
        specs_a = [(t.spec.param, t.record.bit if t.record else None) for t in a.all_tests()]
        specs_b = [(t.spec.param, t.record.bit if t.record else None) for t in b.all_tests()]
        assert specs_a != specs_b

    def test_progress_callback(self, lu_app, lu_profile):
        points = enumerate_points(lu_profile)[:2]
        log = ProgressLog()
        Campaign(
            lu_app,
            lu_profile,
            tests_per_point=2,
            param_policy="buffer",
            seed=0,
            progress_sinks=[log],
        ).run(points)
        # (done_tests, total_tests), one update per completed work unit
        # (whole-point units under the snapshot default).
        assert log.seen == [(2, 4), (4, 4)]

    def test_progress_throttled_serial(self, lu_app, lu_profile):
        points = enumerate_points(lu_profile)[:5]
        log = ProgressLog()
        Campaign(
            lu_app,
            lu_profile,
            tests_per_point=2,
            param_policy="buffer",
            seed=0,
            progress_sinks=[log],
            progress_every=2,
        ).run(points)
        # Tests done after every 2nd unit, plus the final (odd) one.
        assert log.seen == [(4, 10), (8, 10), (10, 10)]

    def test_incremental_tallies_survive_direct_append(self, lu_small_campaign):
        pr = next(iter(lu_small_campaign.points.values()))
        before = pr.outcomes
        extra = pr.tests[0]
        pr.tests.append(extra)  # legacy direct-append path
        after = pr.outcomes
        assert after[extra.outcome] == before[extra.outcome] + 1
        assert sum(after.values()) == len(pr.tests)
        pr.tests.pop()  # restore the shared session fixture
        assert sum(pr.outcomes.values()) == len(pr.tests)


class TestToolErrorAggregation:
    """TOOL_ERROR verdicts are excluded from every paper-facing rate."""

    @staticmethod
    def _pr(outcomes):
        from repro.injection.campaign import PointResult
        from repro.injection.runner import TestResult

        point = InjectionPoint(0, "Allreduce", "f.py:1", 0)
        pr = PointResult(point)
        for o in outcomes:
            pr.tests.append(TestResult(FaultSpec(point, "count", None), o, None))
        return pr

    def test_error_rate_excludes_tool_errors(self):
        pr = self._pr(
            [Outcome.SUCCESS, Outcome.SEG_FAULT, Outcome.TOOL_ERROR, Outcome.TOOL_ERROR]
        )
        # 1 error out of 2 application responses — not out of 4 tests.
        assert pr.error_rate == pytest.approx(0.5)
        assert pr.n_tool_errors == 2
        assert pr.n_tests == 4

    def test_all_tool_errors_means_no_rate(self):
        pr = self._pr([Outcome.TOOL_ERROR] * 3)
        assert pr.error_rate == 0.0
        assert pr.majority_outcome() is Outcome.SUCCESS  # by absence

    def test_majority_never_returns_tool_error(self):
        pr = self._pr(
            [Outcome.TOOL_ERROR, Outcome.TOOL_ERROR, Outcome.TOOL_ERROR, Outcome.MPI_ERR]
        )
        assert pr.majority_outcome() is Outcome.MPI_ERR
        # mldriven labels index into OUTCOME_ORDER — must never raise.
        assert OUTCOME_ORDER.index(pr.majority_outcome()) >= 0

    def test_direct_append_resyncs_exclusions(self):
        from repro.injection.runner import TestResult

        pr = self._pr([Outcome.SUCCESS])
        point = pr.point
        pr.tests.append(
            TestResult(FaultSpec(point, "count", None), Outcome.TOOL_ERROR, None)
        )
        assert pr.n_tool_errors == 1
        assert pr.error_rate == 0.0

    def test_campaign_histogram_and_tool_error_count(self):
        from repro.injection.campaign import CampaignResult

        result = CampaignResult("x", 4, "buffer")
        pr = self._pr([Outcome.SUCCESS, Outcome.WRONG_ANS, Outcome.TOOL_ERROR])
        result.points[pr.point] = pr
        hist = result.outcome_histogram()
        assert Outcome.TOOL_ERROR not in hist
        assert sum(hist.values()) == 2
        assert result.tool_error_count() == 1
        assert sum(result.outcome_fractions().values()) == pytest.approx(1.0)
