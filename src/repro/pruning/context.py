"""Application-context-driven fault injection (paper § III-B).

A call site may be invoked thousands of times, but invocations that
share the same call stack share the same application context, and the
application responds to their corruption the same way (the paper
demonstrates a tight Gaussian over same-stack invocations, Fig. 3).  So
one representative invocation stands in for every invocation with the
same stack.  :func:`fit_error_rates` and :func:`histogram` measure that
Gaussian (Fig. 3: mean 29.58 %, standard deviation 7.69 over 100
same-stack invocations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..injection.space import InjectionPoint
from ..profiling.profiler import ApplicationProfile


@dataclass
class ContextSelection:
    """Result of context-driven pruning over a set of points."""

    #: representative point -> all points it stands for (itself included).
    representatives: dict[InjectionPoint, list[InjectionPoint]] = field(default_factory=dict)
    total_points: int = 0

    @property
    def selected_points_list(self) -> list[InjectionPoint]:
        return sorted(self.representatives)

    @property
    def selected_points(self) -> int:
        return len(self.representatives)

    @property
    def reduction(self) -> float:
        """Fraction of points eliminated (the "App" column of Table III)."""
        if self.total_points == 0:
            return 0.0
        return 1.0 - self.selected_points / self.total_points

    def expand(self, point: InjectionPoint) -> list[InjectionPoint]:
        """All points a representative stands for."""
        return self.representatives[point]


def select_context(
    profile: ApplicationProfile, points: Iterable[InjectionPoint], metrics=None
) -> ContextSelection:
    """Collapse ``points`` to one representative per (rank, site, stack).

    The representative is the earliest invocation of each stack class,
    matching the paper's "choose one representative invocation to
    represent all other invocations that share the same call stack".
    ``metrics`` optionally records the sizes under ``prune.context.*``.
    """
    sel = ContextSelection()
    by_group: dict[tuple, list[InjectionPoint]] = {}
    for pt in points:
        sel.total_points += 1
        summary = profile.summary(pt.rank, pt.site_key)
        stack = None
        for s, invs in summary.stack_groups.items():
            if pt.invocation in invs:
                stack = s
                break
        by_group.setdefault((pt.rank, pt.site_key, stack), []).append(pt)

    for _, members in sorted(by_group.items(), key=lambda kv: str(kv[0])):
        members.sort()
        sel.representatives[members[0]] = members
    if metrics is not None:
        metrics.gauge("prune.context.total_points").set(sel.total_points)
        metrics.gauge("prune.context.selected_points").set(sel.selected_points)
        metrics.gauge("prune.context.reduction").set(sel.reduction)
    return sel


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
