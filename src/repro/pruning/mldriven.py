"""Point labels for machine-learning-driven fault injection (§ III-C).

The learning loop itself — inject a batch, verify the model on it,
retrain, stop at the accuracy threshold, predict the rest — is
:func:`repro.steer.adaptive_campaign` (``FastFIT.learn`` runs it with
the ``"order"`` sampler and no stopper).  A labeler maps a measured
point to the class the forest learns.

The paper deliberately *qualifies* sensitivity into error-rate levels
instead of predicting raw error rates: four quartile levels for the
decision model (low / medium-low / medium-high / high), the asymmetric
(15 %, 85 %) three-level scheme of Figs. 8/11, and even two-level
splits for Fig. 13a.  :class:`LevelScheme` captures all of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..injection.campaign import PointResult
from ..injection.outcome import OUTCOME_ORDER

Labeler = Callable[[PointResult], int]


@dataclass(frozen=True)
class LevelScheme:
    """A discretisation of the error-rate range [0, 1].

    ``bounds`` are the inner cut points; rates land in
    ``len(bounds) + 1`` levels.  A rate equal to a bound belongs to the
    upper level.
    """

    bounds: tuple[float, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != len(self.bounds) + 1:
            raise ValueError("need exactly one more name than bounds")
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"bounds must be ascending, got {self.bounds}")

    @property
    def n_levels(self) -> int:
        return len(self.names)

    def level_of(self, rate: float) -> int:
        """Level index of an error rate."""
        return int(np.searchsorted(np.asarray(self.bounds), rate, side="right"))

    def name_of(self, rate: float) -> str:
        return self.names[self.level_of(rate)]

    @classmethod
    def even(cls, n_levels: int, names: tuple[str, ...] | None = None) -> "LevelScheme":
        """Evenly divided levels (the paper's Fig. 13 configuration)."""
        bounds = tuple((i + 1) / n_levels for i in range(n_levels - 1))
        if names is None:
            names = tuple(f"level{i}" for i in range(n_levels))
        return cls(bounds, names)


#: Four quartile levels used by the prediction model (Fig. 4).
QUARTILE_LEVELS = LevelScheme(
    (0.25, 0.50, 0.75), ("low", "medium-low", "medium-high", "high")
)

#: The asymmetric scheme of Figs. 8 and 11: low ≤ 15 %, high ≥ 85 %.
PAPER_3_LEVELS = LevelScheme((0.15, 0.85), ("low", "med", "high"))

#: Even two- and three-level schemes of Figs. 13a/13b.
EVEN_2_LEVELS = LevelScheme.even(2, ("low", "high"))
EVEN_3_LEVELS = LevelScheme.even(3, ("low", "med", "high"))


def level_distribution(rates: list[float], scheme: LevelScheme) -> dict[str, float]:
    """Fraction of points per level (the bars of Figs. 8/11)."""
    if not rates:
        return {name: 0.0 for name in scheme.names}
    counts = np.zeros(scheme.n_levels)
    for r in rates:
        counts[scheme.level_of(r)] += 1
    return {name: float(c / len(rates)) for name, c in zip(scheme.names, counts)}


def level_labeler(scheme: LevelScheme = QUARTILE_LEVELS) -> tuple[Labeler, tuple[str, ...]]:
    """Label points by error-rate level (the paper's default target)."""
    return (lambda pr: scheme.level_of(pr.error_rate)), tuple(scheme.names)


def outcome_labeler() -> tuple[Labeler, tuple[str, ...]]:
    """Label points by majority response type."""
    return (
        lambda pr: OUTCOME_ORDER.index(pr.majority_outcome()),
        tuple(o.value for o in OUTCOME_ORDER),
    )
