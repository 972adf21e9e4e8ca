"""Point labelers for machine-learning-driven fault injection (§ III-C).

The learning loop itself — inject a batch, verify the model on it,
retrain, stop at the accuracy threshold, predict the rest — is
:func:`repro.steer.adaptive_campaign` (``FastFIT.learn`` runs it with
the ``"order"`` sampler and no stopper).  A labeler maps a measured
point to the class the forest learns.
"""

from __future__ import annotations

from typing import Callable

from ..analysis.sensitivity import QUARTILE_LEVELS, LevelScheme
from ..injection.campaign import PointResult
from ..injection.outcome import OUTCOME_ORDER

Labeler = Callable[[PointResult], int]


def level_labeler(scheme: LevelScheme = QUARTILE_LEVELS) -> tuple[Labeler, tuple[str, ...]]:
    """Label points by error-rate level (the paper's default target)."""
    return (lambda pr: scheme.level_of(pr.error_rate)), tuple(scheme.names)


def outcome_labeler() -> tuple[Labeler, tuple[str, ...]]:
    """Label points by majority response type."""
    return (
        lambda pr: OUTCOME_ORDER.index(pr.majority_outcome()),
        tuple(o.value for o in OUTCOME_ORDER),
    )
