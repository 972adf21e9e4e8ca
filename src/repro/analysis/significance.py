"""Statistical adequacy of the per-point test count.

The paper uses "at least 100 fault injection tests at each fault
injection point to ensure statistical significance" and asserts that
"100 random fault injection tests are sufficient".  This module makes
that adequacy checkable: Wilson confidence intervals for the measured
error rate, the minimum test count for a target half-width, and a
convergence trace of the estimate as tests accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist


@dataclass(frozen=True)
class RateInterval:
    """A binomial proportion with its Wilson confidence interval."""

    rate: float
    low: float
    high: float
    n: int
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0


def _normal_quantile(confidence: float) -> float:
    """The two-sided normal quantile ``z`` of a confidence level."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_bounds(k: int, n: int, z: float) -> tuple[float, float]:
    """``(lo, hi)`` of the Wilson score interval for ``k`` successes in
    ``n`` trials at normal quantile ``z`` — the one closed form behind
    :func:`wilson_interval` and the sequential stopper
    (:mod:`repro.steer.stopping`).  ``n = 0`` is the vacuous ``(0, 1)``.
    """
    if z <= 0:
        raise ValueError(f"z must be > 0, got {z}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, n={n}], got {k}")
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def wilson_interval(errors: int, n: int, confidence: float = 0.95) -> RateInterval:
    """Wilson score interval for an error rate (robust near 0 and 1)."""
    if n <= 0:
        return RateInterval(0.0, 0.0, 1.0, 0, confidence)
    low, high = wilson_bounds(errors, n, _normal_quantile(confidence))
    return RateInterval(errors / n, low, high, n, confidence)


def required_tests(half_width: float, confidence: float = 0.95, worst_p: float = 0.5) -> int:
    """Minimum tests for the target CI half-width (normal approx.).

    With the paper's implicit target of distinguishing the four quartile
    sensitivity levels (half-width ≈ 0.125), ~62 tests suffice at 95 %
    confidence — the paper's 100 is comfortably adequate.
    """
    if not 0 < half_width < 1:
        raise ValueError(f"half_width must be in (0, 1), got {half_width}")
    z = _normal_quantile(confidence)
    return math.ceil(worst_p * (1 - worst_p) * (z / half_width) ** 2)


def convergence_trace(outcomes_are_errors: list[bool], confidence: float = 0.95) -> list[RateInterval]:
    """The running error-rate estimate after 1, 2, …, n tests."""
    trace = []
    errors = 0
    for i, is_err in enumerate(outcomes_are_errors, start=1):
        errors += int(is_err)
        trace.append(wilson_interval(errors, i, confidence))
    return trace


def level_stability(
    trace: list[RateInterval], level_of, final_level: int | None = None
) -> int:
    """The test count after which the assigned sensitivity level never
    changes again (how early the paper's qualification stabilises).

    ``level_of`` maps a rate to a level index (e.g.
    ``QUARTILE_LEVELS.level_of``).  Returns ``len(trace)`` when the
    level is still unstable at the end.
    """
    if not trace:
        return 0
    if final_level is None:
        final_level = level_of(trace[-1].rate)
    stable_from = len(trace)
    for i in range(len(trace) - 1, -1, -1):
        if level_of(trace[i].rate) != final_level:
            break
        stable_from = i + 1
    return stable_from
