"""Tests for the propagation study and the per-point test-count checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection import enumerate_points
from repro.injection.propagation import propagation_study, tainted_ranks
from repro.pruning.mldriven import QUARTILE_LEVELS
from repro.steer.stopping import (
    convergence_trace,
    level_stability,
    required_tests,
    wilson_interval,
)


class TestPropagation:
    @pytest.fixture(scope="class")
    def allreduce_prop(self, lu_app, lu_profile):
        point = next(
            p for p in enumerate_points(lu_profile) if p.collective == "Allreduce"
        )
        return propagation_study(
            lu_app, lu_profile, point, tests=10, param_policy="sendbuf", seed=4
        )

    def test_all_tests_recorded(self, allreduce_prop):
        assert len(allreduce_prop.tainted) == 10
        assert len(allreduce_prop.outcomes) == 10

    def test_allreduce_taints_globally_or_not_at_all(self, allreduce_prop):
        """Allreduce delivers the same (corrupted) result everywhere:
        the blast radius is all-or-nothing."""
        for taint in allreduce_prop.completed:
            assert len(taint) in (0, allreduce_prop.nranks)

    def test_rates_bounded(self, allreduce_prop):
        assert 0.0 <= allreduce_prop.global_taint_rate <= 1.0
        assert 0.0 <= allreduce_prop.containment_rate <= 1.0
        assert 0.0 <= allreduce_prop.mean_blast_radius <= allreduce_prop.nranks

    def test_tainted_ranks_helper(self, lu_app, lu_profile):
        golden = lu_profile.golden_results
        mutated = [dict(g) for g in golden]
        mutated[2] = {**mutated[2], "checksum": 1e9}
        assert tainted_ranks(lu_app, golden, mutated) == frozenset({2})
        assert tainted_ranks(lu_app, golden, golden) == frozenset()


class TestSignificance:
    def test_wilson_basic(self):
        iv = wilson_interval(30, 100)
        assert iv.low < 0.3 < iv.high
        assert iv.n == 100

    def test_wilson_edge_cases(self):
        assert wilson_interval(0, 50).low == 0.0
        assert wilson_interval(50, 50).high == 1.0
        assert wilson_interval(0, 0).n == 0
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    @settings(max_examples=50, deadline=None)
    @given(errors=st.integers(0, 100), n=st.integers(1, 100))
    def test_wilson_contains_point_estimate(self, errors, n):
        errors = min(errors, n)
        iv = wilson_interval(errors, n)
        assert iv.low - 1e-12 <= iv.rate <= iv.high + 1e-12
        assert 0.0 <= iv.low <= iv.high <= 1.0

    def test_required_tests_for_quartile_levels(self):
        """The paper's 100 tests/point comfortably cover quartile-level
        discrimination at 95 % confidence."""
        n = required_tests(half_width=0.125)
        assert n <= 100
        assert required_tests(half_width=0.05) > 100

    def test_values_pinned_from_scipy(self):
        """Captured from ``scipy.stats.norm.ppf`` before the stdlib
        ``NormalDist().inv_cdf`` replaced it."""
        iv = wilson_interval(3, 20)
        assert (iv.rate, iv.n, iv.confidence) == (0.15, 20, 0.95)
        assert iv.low == pytest.approx(0.052368745896216595, abs=1e-12)
        assert iv.high == pytest.approx(0.36041886474075696, abs=1e-12)
        iv = wilson_interval(0, 100, 0.99)
        assert iv.low == 0.0
        assert iv.high == pytest.approx(0.062220687715822974, abs=1e-12)
        assert type(iv.low) is float and type(iv.high) is float
        assert required_tests(0.125) == 62
        assert required_tests(0.05) == 385
        assert required_tests(0.1, confidence=0.99) == 166

    def test_required_tests_validates(self):
        with pytest.raises(ValueError):
            required_tests(0.0)

    def test_convergence_trace_monotone_n(self):
        rng = np.random.default_rng(0)
        outcomes = list(rng.random(60) < 0.3)
        trace = convergence_trace(outcomes)
        assert len(trace) == 60
        assert trace[-1].half_width < trace[4].half_width

    def test_level_stability(self):
        outcomes = [True] * 10 + [False] * 90  # settles to rate 0.1 (low)
        trace = convergence_trace(outcomes)
        stable = level_stability(trace, QUARTILE_LEVELS.level_of)
        assert 0 < stable <= 100
        assert QUARTILE_LEVELS.level_of(trace[-1].rate) == 0

    def test_level_stability_empty(self):
        assert level_stability([], QUARTILE_LEVELS.level_of) == 0

