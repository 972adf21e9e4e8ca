"""Mutant-style pin: ``TOOL_ERROR`` is a harness verdict, not one of the
paper's six application responses, and must stay excluded from every
paper-facing surface — OUTCOME_ORDER, histograms, error rates (numerator
AND denominator), majority outcomes, and ML training labels.

Each assertion here is chosen so that re-including TOOL_ERROR anywhere
flips it.
"""

import numpy as np
import pytest

from repro.injection.campaign import CampaignResult, PointResult
from repro.injection.outcome import OUTCOME_ORDER, Outcome
from repro.injection.runner import TestResult as InjectionTestResult
from repro.injection.space import FaultSpec, InjectionPoint

POINT = InjectionPoint(rank=0, collective="Allreduce", site="app.py:1", invocation=0)


def make_point_result(*outcomes):
    pr = PointResult(POINT)
    for outcome in outcomes:
        pr.tests.append(InjectionTestResult(FaultSpec(POINT, "count", 0), outcome, None))
    return pr


class TestTaxonomy:
    def test_outcome_order_is_the_six_table_i_responses(self):
        assert Outcome.TOOL_ERROR not in OUTCOME_ORDER
        assert len(OUTCOME_ORDER) == 6
        assert OUTCOME_ORDER[0] is Outcome.SUCCESS

    def test_tool_error_is_neither_response_nor_error(self):
        assert not Outcome.TOOL_ERROR.is_application_response
        assert not Outcome.TOOL_ERROR.is_error
        assert Outcome.SEG_FAULT.is_error and Outcome.SEG_FAULT.is_application_response

    def test_tool_error_has_no_label_index(self):
        with pytest.raises(ValueError):
            OUTCOME_ORDER.index(Outcome.TOOL_ERROR)


class TestErrorRate:
    def test_excluded_from_numerator_and_denominator(self):
        pr = make_point_result(
            Outcome.SUCCESS, Outcome.SUCCESS, Outcome.MPI_ERR, Outcome.TOOL_ERROR
        )
        assert pr.error_rate == pytest.approx(1 / 3)  # not 1/4, not 2/4

    def test_denominator_shrinks_with_tool_errors(self):
        pr = make_point_result(
            Outcome.TOOL_ERROR, Outcome.TOOL_ERROR, Outcome.TOOL_ERROR, Outcome.SEG_FAULT
        )
        assert pr.error_rate == 1.0  # the one real response was an error

    def test_all_tool_errors_is_not_an_error_rate(self):
        pr = make_point_result(Outcome.TOOL_ERROR, Outcome.TOOL_ERROR)
        assert pr.error_rate == 0.0
        assert pr.n_tool_errors == 2


class TestMajorityOutcome:
    def test_tool_error_plurality_never_wins(self):
        pr = make_point_result(
            Outcome.TOOL_ERROR, Outcome.TOOL_ERROR, Outcome.TOOL_ERROR, Outcome.WRONG_ANS
        )
        assert pr.majority_outcome() is Outcome.WRONG_ANS

    def test_degenerate_point_reports_success_by_absence(self):
        pr = make_point_result(Outcome.TOOL_ERROR)
        assert pr.majority_outcome() is Outcome.SUCCESS


class TestCampaignSurfaces:
    @pytest.fixture()
    def result(self):
        result = CampaignResult("app", 4, "all")
        result.points[POINT] = make_point_result(
            Outcome.SUCCESS, Outcome.SEG_FAULT, Outcome.TOOL_ERROR, Outcome.TOOL_ERROR
        )
        return result

    def test_histogram_keys_are_exactly_outcome_order(self, result):
        hist = result.outcome_histogram()
        assert set(hist) == set(OUTCOME_ORDER)
        assert sum(hist.values()) == 2  # the two TOOL_ERROR tests vanished
        assert result.tool_error_count() == 2

    def test_by_param_excludes_tool_error(self, result):
        for histogram in result.by_param().values():
            assert Outcome.TOOL_ERROR not in histogram

    def test_ml_labels_cover_outcome_order_only(self, result):
        from repro.ml.dataset import outcome_labels

        points, y = outcome_labels(result)
        assert points == [POINT]
        assert y.dtype == np.int64
        assert all(0 <= label < len(OUTCOME_ORDER) for label in y)
        # This point's majority is SEG_FAULT (SUCCESS ties break first,
        # but 1 SUCCESS vs 1 SEG_FAULT ties at 1 -> Table I order wins).
        assert OUTCOME_ORDER[y[0]] in (Outcome.SUCCESS, Outcome.SEG_FAULT)
