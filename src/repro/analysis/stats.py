"""Statistical helpers for the sensitivity study.

Chiefly the Gaussian characterisation of per-invocation error rates the
paper uses to justify context-driven pruning (Fig. 3: mean 29.58 %,
standard deviation 7.69 over 100 same-stack invocations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianFit:
    """A fitted normal distribution over error rates (in percent)."""

    mean: float
    std: float
    n: int

    def pdf(self, x: np.ndarray) -> np.ndarray:
        sigma = max(self.std, 1e-12)
        z = (np.asarray(x, dtype=np.float64) - self.mean) / sigma
        return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def fit_error_rates(rates_percent: list[float]) -> GaussianFit:
    """Fit a Gaussian to error rates given in percent (Fig. 3 style)."""
    arr = np.asarray(rates_percent, dtype=np.float64)
    if arr.size == 0:
        return GaussianFit(0.0, 0.0, 0)
    return GaussianFit(float(arr.mean()), float(arr.std()), int(arr.size))


def histogram(
    rates_percent: list[float], bin_width: float = 5.0, max_rate: float = 100.0
) -> tuple[np.ndarray, np.ndarray]:
    """Counts per error-rate bin (the bars of Fig. 3).

    Returns ``(bin_edges, counts)`` with edges every ``bin_width``
    percent.
    """
    edges = np.arange(0.0, max_rate + bin_width, bin_width)
    counts, _ = np.histogram(np.asarray(rates_percent), bins=edges)
    return edges, counts


def dispersion_summary(rates_percent: list[float]) -> dict[str, float]:
    """Mean/std/min/max plus the fraction within one standard deviation —
    how "focused in a limited range" the distribution is (§ III-B)."""
    arr = np.asarray(rates_percent, dtype=np.float64)
    if arr.size == 0:
        return {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0, "within_1sd": 0.0}
    fit = fit_error_rates(list(arr))
    within = np.abs(arr - fit.mean) <= max(fit.std, 1e-12)
    return {
        "mean": fit.mean,
        "std": fit.std,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "within_1sd": float(within.mean()),
    }
