"""Property tests for the uncertainty sampler.

The adaptive driver's reproducibility rests on ``select_batch`` being a
pure function of (candidates, scores) — hypothesis drives the properties
that guarantee it: determinism, uniqueness, subset-of-pool, smallest-
index tie-break, and no-starvation under without-replacement draining.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.steer import select_batch, uncertainty_scores
from repro.steer.sampler import UNCERTAINTY_MODES

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)


class FakeModel:
    """predict_proba stub returning a fixed row-stochastic matrix."""

    def __init__(self, proba):
        self.proba = np.asarray(proba, dtype=np.float64)

    def predict_proba(self, X):
        return self.proba[: len(X)]


# ---------------------------------------------------------------------------
# uncertainty_scores


class TestUncertaintyScores:
    def test_margin_pins(self):
        model = FakeModel([[1.0, 0.0], [0.5, 0.5], [0.75, 0.25]])
        scores = uncertainty_scores(model, np.zeros((3, 1)), "margin")
        assert scores == pytest.approx([0.0, 0.5, 0.25])

    def test_entropy_pins(self):
        model = FakeModel([[1.0, 0.0], [0.5, 0.5], [0.25, 0.25, 0.25, 0.25][:2]])
        scores = uncertainty_scores(model, np.zeros((3, 1)), "entropy")
        # Certain vote: 0 nats (0*log 0 := 0, no warnings).  Even
        # two-way split: log 2.
        assert scores[0] == pytest.approx(0.0)
        assert scores[1] == pytest.approx(math.log(2))

    def test_entropy_separates_two_way_from_four_way(self):
        # Margin cannot tell these apart (both 0.75 margin-score is
        # wrong: margin is 0.5 both ways when max prob is 0.5 vs 0.25).
        model = FakeModel([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
        scores = uncertainty_scores(model, np.zeros((2, 1)), "entropy")
        assert scores[0] == pytest.approx(math.log(2))
        assert scores[1] == pytest.approx(math.log(4))
        assert scores[1] > scores[0]

    def test_empty_candidate_matrix(self):
        model = FakeModel(np.zeros((0, 3)))
        assert uncertainty_scores(model, np.zeros((0, 2))).shape == (0,)

    def test_unknown_mode_rejected(self):
        model = FakeModel([[1.0, 0.0]])
        for mode in ("random", "order"):
            with pytest.raises(ValueError, match="unknown sampler mode"):
                uncertainty_scores(model, np.zeros((1, 1)), mode)

    @settings(**SETTINGS)
    @given(
        rows=st.lists(
            st.lists(st.floats(0.001, 1.0), min_size=3, max_size=3),
            min_size=1,
            max_size=12,
        ),
        mode=st.sampled_from(UNCERTAINTY_MODES),
    )
    def test_scores_bounded_and_aligned(self, rows, mode):
        proba = np.array(rows)
        proba /= proba.sum(axis=1, keepdims=True)
        scores = uncertainty_scores(FakeModel(proba), np.zeros((len(rows), 1)), mode)
        assert scores.shape == (len(rows),)
        upper = 1.0 if mode == "margin" else math.log(3)
        assert np.all(scores >= -1e-12)
        assert np.all(scores <= upper + 1e-12)


# ---------------------------------------------------------------------------
# select_batch

pools = st.lists(st.integers(0, 200), min_size=1, max_size=30, unique=True)


class TestSelectBatch:
    def test_picks_top_scores(self):
        assert select_batch([10, 11, 12, 13], [0.1, 0.9, 0.5, 0.7], 2) == [11, 13]

    def test_tie_breaks_toward_smaller_index(self):
        assert select_batch([7, 3, 5], [0.5, 0.5, 0.5], 2) == [3, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            select_batch([1, 2], [0.1, 0.2], 0)
        with pytest.raises(ValueError):
            select_batch([1, 2], [0.1], 2)
        with pytest.raises(ValueError, match="unique"):
            select_batch([1, 1], [0.1, 0.2], 1)

    @settings(**SETTINGS)
    @given(
        pool=pools,
        batch_size=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_deterministic_subset_without_duplicates(self, pool, batch_size, seed):
        scores = np.random.default_rng(seed).random(len(pool))
        batch = select_batch(pool, scores, batch_size)
        # Deterministic: same inputs, same output.
        assert batch == select_batch(list(pool), np.array(scores), batch_size)
        # A duplicate-free subset of the pool, at most batch_size long.
        assert len(batch) == min(batch_size, len(pool))
        assert len(set(batch)) == len(batch)
        assert set(batch) <= set(pool)

    @settings(**SETTINGS)
    @given(
        pool=pools,
        batch_size=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_selected_scores_dominate_rest(self, pool, batch_size, seed):
        scores = np.random.default_rng(seed).random(len(pool))
        by_cand = dict(zip(pool, scores))
        batch = select_batch(pool, scores, batch_size)
        left_out = set(pool) - set(batch)
        if batch and left_out:
            assert min(by_cand[c] for c in batch) >= max(
                by_cand[c] for c in left_out
            )

    @settings(**SETTINGS)
    @given(
        pool=pools,
        batch_size=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_no_starvation_under_drain(self, pool, batch_size, seed):
        # The driver removes each batch from the pool (selection without
        # replacement), so every candidate — even a permanently
        # zero-scored one — must be selected within ceil(n / batch)
        # rounds.  An adversarial score function pins the worst case.
        rng = np.random.default_rng(seed)
        remaining = list(pool)
        rounds = 0
        limit = math.ceil(len(pool) / batch_size)
        while remaining:
            scores = rng.random(len(remaining))
            scores[np.argmin(remaining)] = 0.0  # starve the smallest id
            batch = select_batch(remaining, scores, batch_size)
            assert batch, "drain made no progress"
            remaining = [c for c in remaining if c not in set(batch)]
            rounds += 1
        assert rounds == limit
