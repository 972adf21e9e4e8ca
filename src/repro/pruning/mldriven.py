"""Machine-learning-driven fault injection (paper § III-C / § IV-D).

The injection and learning phases alternate: inject a batch of points,
use the next batch to *verify* the current model, and stop as soon as
the verification accuracy reaches the user's threshold — every point not
yet tested then gets its sensitivity *predicted* instead of measured.
In the worst case the loop runs out of points and degenerates to the
traditional campaign, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..analysis.sensitivity import QUARTILE_LEVELS, LevelScheme
from ..apps.base import Application
from ..injection.campaign import Campaign, CampaignConfig, PointResult
from ..injection.outcome import OUTCOME_ORDER
from ..injection.space import InjectionPoint
from ..ml.features import features_matrix
from ..ml.metrics import accuracy
from ..ml.random_forest import RandomForestClassifier
from ..profiling.profiler import ApplicationProfile

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


@dataclass
class MLDrivenResult:
    """Outcome of one ML-driven injection campaign."""

    threshold: float
    label_names: tuple[str, ...]
    tested: dict[InjectionPoint, PointResult] = field(default_factory=dict)
    predicted: dict[InjectionPoint, int] = field(default_factory=dict)
    accuracy_history: list[float] = field(default_factory=list)
    model: RandomForestClassifier | None = None
    reached_threshold: bool = False

    @property
    def total_points(self) -> int:
        return len(self.tested) + len(self.predicted)

    @property
    def test_reduction(self) -> float:
        """Fraction of points whose tests were *skipped* thanks to the
        prediction model — the "ML" column of Table III."""
        total = self.total_points
        return len(self.predicted) / total if total else 0.0

    @property
    def final_accuracy(self) -> float:
        return self.accuracy_history[-1] if self.accuracy_history else 0.0


def ml_driven_campaign(
    app: Application,
    profile: ApplicationProfile,
    points: Sequence[InjectionPoint],
    *,
    labeler: Labeler | None = None,
    label_names: tuple[str, ...] | None = None,
    threshold: float = 0.65,
    batch_size: int | None = None,
    n_estimators: int = 24,
    config: CampaignConfig | None = None,
    **campaign_options,
) -> MLDrivenResult:
    """Run the inject → learn → verify loop of FastFIT's learning phase.

    ``threshold`` is the user's prediction-accuracy target; smaller
    thresholds stop earlier and skip more tests (the trade-off of
    Fig. 6).  ``metrics`` optionally records per-batch verification
    accuracy and the final tested/predicted split under ``ml.*`` (the
    inner campaign also records ``campaign.*``).

    The loop is a scheduler over one
    :class:`~repro.injection.campaign.Campaign`, built as
    ``Campaign(app, profile, config, **campaign_options)`` — option
    fields (``tests_per_point``, ``seed``, ``jobs``, ``db_path``, …) and
    runtime objects (``metrics``, …) alike.  Batches
    carry their global point indices (the ``SeedSequence`` contract) and
    share one digest computed over the full candidate list, so results
    are bit-identical under any ``jobs`` and a killed-and-resumed run
    replays recorded units to the same :class:`MLDrivenResult` an
    uninterrupted one produces.
    """
    if labeler is None:
        labeler, label_names = level_labeler()
    if label_names is None:
        raise ValueError("label_names required when passing a custom labeler")

    campaign = Campaign(app, profile, config, **campaign_options)
    seed, metrics = campaign.config.seed, campaign.metrics
    rng = np.random.default_rng(seed)
    points = list(points)
    order = list(rng.permutation(len(points)))
    shuffled = [points[i] for i in order]
    if batch_size is None:
        batch_size = max(4, len(shuffled) // 8)

    digest = campaign.digest(
        points,
        extra={
            "ml": {
                "threshold": threshold,
                "batch_size": batch_size,
                "n_estimators": n_estimators,
            }
        },
    )
    result = MLDrivenResult(threshold=threshold, label_names=label_names)

    def labels_of(prs: dict[InjectionPoint, PointResult]) -> tuple[list[InjectionPoint], np.ndarray]:
        pts = sorted(prs)
        return pts, np.array([labeler(prs[p]) for p in pts], dtype=np.int64)

    model: RandomForestClassifier | None = None
    idx = 0
    batch_no = 0
    while idx < len(shuffled):
        batch = shuffled[idx : idx + batch_size]
        idx += len(batch)
        batch_indices = [order[idx - len(batch) + j] for j in range(len(batch))]
        # One Campaign.run per batch: global indices preserved, all
        # batches in one store campaign row (when a store is configured).
        measured = campaign.run(batch, point_indices=batch_indices, digest=digest).points
        # Later batches must join that row, not cascade-wipe it.
        campaign.config = replace(campaign.config, resume=True)

        if model is not None:
            # Verification: predict the fresh batch, compare to reality.
            pts, y_true = labels_of(measured)
            y_pred = model.predict(features_matrix(profile, pts))
            acc = accuracy(y_true, y_pred)
            result.accuracy_history.append(acc)
            if metrics is not None:
                metrics.histogram("ml.batch_accuracy").observe(acc)
            result.tested.update(measured)
            if acc >= threshold:
                result.reached_threshold = True
                break
        else:
            result.tested.update(measured)

        pts, y = labels_of(result.tested)
        model = RandomForestClassifier(
            n_estimators=n_estimators, seed=seed + batch_no
        ).fit(features_matrix(profile, pts), y)
        batch_no += 1

    result.model = model
    remaining = shuffled[idx:]
    if remaining and model is not None:
        preds = model.predict(features_matrix(profile, remaining))
        result.predicted = {pt: int(p) for pt, p in zip(remaining, preds)}
    if metrics is not None:
        metrics.gauge("ml.tested_points").set(len(result.tested))
        metrics.gauge("ml.predicted_points").set(len(result.predicted))
        metrics.gauge("ml.test_reduction").set(result.test_reduction)
        metrics.gauge("ml.final_accuracy").set(result.final_accuracy)
    return result
