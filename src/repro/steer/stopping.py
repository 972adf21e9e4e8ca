"""Sequential stopping for adaptive campaigns: Wilson-interval early exit.

A fixed ``tests_per_point`` spends the same budget on a point whose
outcome histogram is obvious after a handful of tests as on a genuinely
noisy one.  The sequential stopper ends a point's test stream as soon as
the Wilson score interval over its error rate closes below a configured
width: degenerate points (all-SUCCESS allreduce padding, always-fatal
root corruption) resolve in ~``z²(1-w)/w`` tests, while mixed-response
points keep running up to the full per-point budget.

Determinism contract
--------------------
The stop decision is a **pure function of the ordered test-result
prefix** — no wall clock, no RNG, no cross-point state.  Tests at a
point always execute in test-index order ``0, 1, 2, …``, so a serial
loop, a ``--jobs N`` worker (which owns the whole point — see
:mod:`repro.exec.parallel`), and a killed-and-resumed run all truncate
the stream at exactly the same index.  That is what keeps adaptive
campaigns bit-identical across schedulings, the same guarantee plain
campaigns get from the ``SeedSequence(seed, (point, test))`` contract.

Only *application responses* count toward the interval: harness-level
``TOOL_ERROR`` verdicts say nothing about the application's sensitivity
and are excluded from ``n`` and ``k`` — mirroring how
``PointResult.error_rate`` excludes them from both sides of the rate.

Closed forms used by the unit tests
-----------------------------------
For ``k = 0`` (or symmetrically ``k = n``) the Wilson interval is
``[0, z²/(n+z²)]``, so a degenerate histogram closes below width ``w``
exactly when ``n ≥ z²(1-w)/w`` — see :func:`tests_to_close`.

Statistical adequacy of a fixed test count
------------------------------------------
The paper uses "at least 100 fault injection tests at each fault
injection point to ensure statistical significance".  The same interval
makes that checkable: :func:`wilson_interval` for a measured error
rate, :func:`required_tests` for a target half-width, and
:func:`convergence_trace` of the estimate as tests accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

from ..injection.runner import TestResult

#: Two-sided 95% normal quantile — the conventional Wilson z.
DEFAULT_Z = 1.96


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
    :func:`wilson_interval` and the sequential stopper.

    Unlike the normal-approximation interval, Wilson stays inside
    ``[0, 1]`` and keeps a sensible (non-zero) width at ``k = 0`` and
    ``k = n`` — exactly the degenerate histograms a fault-injection
    point usually produces.  ``n = 0`` is the vacuous ``(0, 1)``.
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


def wilson_width(k: int, n: int, z: float = DEFAULT_Z) -> float:
    """Full width (``hi - lo``) of the Wilson interval."""
    lo, hi = wilson_bounds(k, n, z)
    return hi - lo


def tests_to_close(ci_width: float, z: float = DEFAULT_Z) -> int:
    """Smallest ``n`` at which a *degenerate* histogram (``k = 0`` or
    ``k = n``) closes below ``ci_width`` — the best case, and therefore
    the floor on what any point can cost under the stopper.

    Closed form: the ``k = 0`` interval is ``[0, z²/(n+z²)]``, so
    ``width ≤ w  ⇔  n ≥ z²(1-w)/w``.
    """
    if not 0.0 < ci_width <= 1.0:
        raise ValueError(f"ci_width must be in (0, 1], got {ci_width}")
    if z <= 0:
        raise ValueError(f"z must be > 0, got {z}")
    return max(1, math.ceil(z * z * (1.0 - ci_width) / ci_width))


@dataclass(frozen=True)
class SequentialStopper:
    """Per-point early-stopping policy over the outcome histogram.

    Attributes
    ----------
    ci_width:
        Stop once the Wilson interval over the point's error rate is no
        wider than this (full width, not half-width).
    min_tests:
        Never stop before this many application responses — guards
        against closing on a 2-test "histogram".
    z:
        Normal quantile of the interval (default: two-sided 95%).

    The instance is frozen (and therefore hashable/picklable): workers
    receive it inside the pickled campaign payload.
    """

    ci_width: float
    min_tests: int = 6
    z: float = DEFAULT_Z

    def __post_init__(self) -> None:
        if not 0.0 < self.ci_width <= 1.0:
            raise ValueError(f"ci_width must be in (0, 1], got {self.ci_width}")
        if self.min_tests < 1:
            raise ValueError(f"min_tests must be >= 1, got {self.min_tests}")
        if self.z <= 0:
            raise ValueError(f"z must be > 0, got {self.z}")

    def should_stop(self, tests: Sequence[TestResult]) -> bool:
        """Decide on the ordered prefix of a point's tests so far.

        Counts application responses only (``TOOL_ERROR`` excluded from
        both ``n`` and ``k``), matching ``PointResult.error_rate``.
        """
        return self._stops(*_responses(tests))

    def certain(self, tests: Sequence[TestResult], most: int) -> int:
        """How many of the next tests (at most ``most``) run whatever the
        results not yet in ``tests`` turn out to be.

        With ``n`` responses and ``k`` errors so far, test ``j`` from now
        runs unless some prefix of the ``j`` results before it stops the
        stream: ``j`` results reach every ``(n + a, k + b)`` with
        ``0 <= b <= a <= j`` (a ``TOOL_ERROR`` leaves ``a`` where it is).
        So the count is the first ``j`` at which one of those stops.
        Each ``j`` adds only the states with ``a = j``, so a call that
        returns ``j`` costs O(``j``²) whatever ``most`` is.
        """
        n, k = _responses(tests)
        for j in range(most):
            if any(self._stops(n + j, k + b) for b in range(j + 1)):
                return j
        return most

    def _stops(self, n: int, k: int) -> bool:
        """The stopping rule on ``k`` errors in ``n`` responses."""
        return n >= self.min_tests and wilson_width(k, n, self.z) <= self.ci_width

    def fingerprint(self) -> dict:
        """JSON-serialisable identity, for the campaign digest."""
        return {"ci_width": self.ci_width, "min_tests": self.min_tests, "z": self.z}


def _responses(tests: Sequence[TestResult]) -> tuple[int, int]:
    """``(n, k)``: the application responses among ``tests`` and the
    errors among those."""
    n = k = 0
    for t in tests:
        if not t.outcome.is_application_response:
            continue
        n += 1
        if t.outcome.is_error:
            k += 1
    return n, k
