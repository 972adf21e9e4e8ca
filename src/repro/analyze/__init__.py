"""Static analysis for the fault-injection pipeline.

Cooperating passes that resolve questions about an application's fault
space from its golden profile (the one fault-free run) instead of from
injection runs:

* :mod:`repro.analyze.skeleton` — reads an app's per-rank collective
  **skeleton** (symbolic call sequences with concrete clean arguments)
  off its golden profile.
* :mod:`repro.analyze.matching` — MPI-Checker-style cross-rank
  collective-matching verification over a skeleton: order, roots,
  counts/dtypes, reduction ops, structural deadlocks.
* :mod:`repro.analyze.preclassify` — provable fault-outcome
  pre-classification for ``InjectionPoint × test`` pairs, replaying the
  campaign's exact per-test randomness; predictions feed ``--static-
  prune`` (see :mod:`repro.injection.campaign`) and the semantic pruner.
* :mod:`repro.analyze.crossval` — the referee: every prediction class
  is validated against live simulator runs; CI fails on one mismatch.
* :mod:`repro.analyze.lint` — determinism/simulator-safety lint the
  replay log depends on.

CLI: ``fastfit analyze`` (and ``--static-prune`` on ``fastfit run``).
"""

from .crossval import CrossValidation, Mismatch, cross_validate
from .lint import LINT_RULES, LintFinding, lint_source, lint_tree
from .matching import Finding, MatchReport, check_skeleton
from .preclassify import (
    PRECLASSIFY_RULES,
    PreClassifier,
    Prediction,
    StaticPruneError,
    predict_tests,
)
from .skeleton import (
    HandleTable,
    Skeleton,
    SkeletonExtractionError,
    SkeletonOp,
    extract_skeleton,
    mutate_op,
    replace_skeleton,
    skeleton_from_profile,
)

__all__ = [
    "CrossValidation",
    "Finding",
    "HandleTable",
    "LINT_RULES",
    "LintFinding",
    "MatchReport",
    "Mismatch",
    "PRECLASSIFY_RULES",
    "PreClassifier",
    "Prediction",
    "Skeleton",
    "SkeletonExtractionError",
    "SkeletonOp",
    "StaticPruneError",
    "check_skeleton",
    "cross_validate",
    "extract_skeleton",
    "lint_source",
    "lint_tree",
    "mutate_op",
    "predict_tests",
    "replace_skeleton",
    "skeleton_from_profile",
]
