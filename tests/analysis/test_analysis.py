"""Sensitivity levels, statistics, and report-renderer tests."""

import numpy as np
import pytest

from repro.pruning.context import GaussianFit, fit_error_rates, histogram
from repro.pruning.mldriven import (
    EVEN_2_LEVELS,
    EVEN_3_LEVELS,
    PAPER_3_LEVELS,
    QUARTILE_LEVELS,
    LevelScheme,
    level_distribution,
)
from repro.report.text import (
    render_bars,
    render_grouped_bars,
    render_histogram,
    render_table,
)


class TestLevelScheme:
    def test_quartiles(self):
        assert QUARTILE_LEVELS.name_of(0.1) == "low"
        assert QUARTILE_LEVELS.name_of(0.3) == "medium-low"
        assert QUARTILE_LEVELS.name_of(0.6) == "medium-high"
        assert QUARTILE_LEVELS.name_of(0.9) == "high"

    def test_paper_3_levels_asymmetric(self):
        assert PAPER_3_LEVELS.name_of(0.14) == "low"
        assert PAPER_3_LEVELS.name_of(0.5) == "med"
        assert PAPER_3_LEVELS.name_of(0.86) == "high"

    def test_boundary_goes_up(self):
        assert PAPER_3_LEVELS.name_of(0.15) == "med"
        assert QUARTILE_LEVELS.level_of(0.25) == 1

    def test_even_schemes(self):
        assert EVEN_2_LEVELS.bounds == (0.5,)
        assert EVEN_3_LEVELS.level_of(0.99) == 2

    def test_invalid_schemes(self):
        with pytest.raises(ValueError):
            LevelScheme((0.5,), ("only",))
        with pytest.raises(ValueError):
            LevelScheme((0.8, 0.2), ("a", "b", "c"))

    def test_distribution_sums_to_one(self):
        rates = [0.0, 0.1, 0.5, 0.9, 1.0]
        dist = level_distribution(rates, PAPER_3_LEVELS)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist["low"] == pytest.approx(2 / 5)

    def test_distribution_empty(self):
        dist = level_distribution([], PAPER_3_LEVELS)
        assert all(v == 0.0 for v in dist.values())


class TestStats:
    def test_gaussian_fit(self):
        rng = np.random.default_rng(0)
        rates = list(rng.normal(29.58, 7.69, size=2000))
        fit = fit_error_rates(rates)
        assert fit.mean == pytest.approx(29.58, abs=0.8)
        assert fit.std == pytest.approx(7.69, abs=0.5)
        assert fit.n == 2000

    def test_gaussian_fit_empty(self):
        fit = fit_error_rates([])
        assert fit.n == 0

    def test_pdf_peaks_at_mean(self):
        fit = fit_error_rates([10.0, 20.0, 30.0])
        xs = np.array([fit.mean - 10, fit.mean, fit.mean + 10])
        pdf = fit.pdf(xs)
        assert pdf[1] == max(pdf)

    def test_pdf_pinned_from_scipy(self):
        """Fig. 3's fit, values captured from ``scipy.stats.norm.pdf``."""
        pdf = GaussianFit(29.58, 7.69, 100).pdf([10, 29.58, 50])
        assert pdf == pytest.approx(
            [0.002028751925369854, 0.05187805987014729, 0.0015270386854516554],
            abs=1e-12,
        )

    def test_histogram_bins(self):
        edges, counts = histogram([2.0, 7.0, 7.5, 96.0], bin_width=5.0)
        assert counts[0] == 1 and counts[1] == 2
        assert counts.sum() == 4


class TestReports:
    def test_render_table_aligns(self):
        out = render_table(["a", "bbb"], [[1, 2.5], ["xx", "y"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len({len(l) for l in lines[2:]}) <= 2

    def test_render_bars_scales(self):
        out = render_bars({"x": 0.5, "y": 1.0}, width=10)
        assert "##########" in out
        assert "50.0%" in out

    def test_render_grouped_bars(self):
        out = render_grouped_bars({"g1": {"a": 0.25}, "g2": {"a": 0.75}})
        assert "25.0%" in out and "75.0%" in out

    def test_render_histogram(self):
        edges, counts = histogram([10.0, 12.0], bin_width=10.0, max_rate=20.0)
        out = render_histogram(edges, counts, title="H")
        assert out.startswith("H")
        assert "10.0" in out
