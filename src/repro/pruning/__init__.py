"""``repro.pruning`` — FastFIT's exploration-space reducers.

Semantic-driven (§ III-A) and application-context-driven (§ III-B)
pruning (with the Fig. 3 Gaussian fit that argues for the latter), plus
the error-rate levels and point labelers of machine-learning-driven
fault injection (§ III-C), whose loop is
:func:`repro.steer.adaptive_campaign`.
"""

from .context import ContextSelection, select_context
from .equivalence import equivalence_classes, rank_signature, representative_of
from .mldriven import level_labeler, outcome_labeler
from .semantic import SemanticSelection, select_semantic

__all__ = [
    "ContextSelection",
    "SemanticSelection",
    "equivalence_classes",
    "level_labeler",
    "outcome_labeler",
    "rank_signature",
    "representative_of",
    "select_context",
    "select_semantic",
]
