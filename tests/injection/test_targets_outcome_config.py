"""Targets and outcome taxonomy tests."""

import numpy as np
import pytest

from repro.injection import (
    Outcome,
    OUTCOME_ORDER,
    all_targets,
    buffer_targets,
    classify_exception,
    param_kind,
    pick_target,
    targets_for_policy,
)
from repro.simmpi import (
    AppError,
    DeadlockError,
    FiberCrashed,
    MPIError,
    SegmentationFault,
    StepBudgetExceeded,
)


class TestTargets:
    def test_buffer_targets(self):
        assert buffer_targets("Allreduce") == ("sendbuf", "recvbuf")
        assert buffer_targets("Bcast") == ("buffer",)
        assert buffer_targets("Barrier") == ()

    def test_policy_buffer_falls_back_for_barrier(self):
        assert targets_for_policy("Barrier", "buffer") == ("comm",)

    def test_policy_all(self):
        assert targets_for_policy("Reduce", "all") == all_targets("Reduce")
        assert "op" in all_targets("Reduce")

    def test_policy_specific_param(self):
        assert targets_for_policy("Allreduce", "count") == ("count",)

    def test_policy_invalid_param(self):
        with pytest.raises(ValueError):
            targets_for_policy("Barrier", "count")

    def test_pick_target_deterministic_per_seed(self):
        a = pick_target(np.random.default_rng(5), "Allreduce", "all")
        b = pick_target(np.random.default_rng(5), "Allreduce", "all")
        assert a == b

    def test_param_kind(self):
        assert param_kind("sendbuf") == "buffer"
        assert param_kind("count") == "scalar"
        assert param_kind("op") == "handle"
        assert param_kind("sendcounts") == "vector"
        with pytest.raises(ValueError):
            param_kind("bogus")


class TestOutcome:
    def test_six_types(self):
        assert len(OUTCOME_ORDER) == 6
        assert [o.value for o in OUTCOME_ORDER] == [
            "SUCCESS",
            "APP_DETECTED",
            "MPI_ERR",
            "SEG_FAULT",
            "WRONG_ANS",
            "INF_LOOP",
        ]

    def test_is_error(self):
        assert not Outcome.SUCCESS.is_error
        assert all(o.is_error for o in OUTCOME_ORDER if o is not Outcome.SUCCESS)

    @pytest.mark.parametrize(
        "exc,expected",
        [
            (AppError("x"), Outcome.APP_DETECTED),
            (MPIError("MPI_ERR_COUNT"), Outcome.MPI_ERR),
            (SegmentationFault(0, 1), Outcome.SEG_FAULT),
            (DeadlockError(), Outcome.INF_LOOP),
            (StepBudgetExceeded(10), Outcome.INF_LOOP),
            (FiberCrashed(0, ValueError("x")), Outcome.SEG_FAULT),
        ],
    )
    def test_classification(self, exc, expected):
        assert classify_exception(exc) is expected

    def test_unclassifiable_raises(self):
        with pytest.raises(TypeError):
            classify_exception(KeyError("nope"))
