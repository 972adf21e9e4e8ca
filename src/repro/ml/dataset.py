"""Dataset assembly: injection points + campaign results → (X, y).

Two label schemes, matching the paper's two prediction targets, each
labelling every point with a :mod:`repro.pruning.mldriven` labeler:

* ``outcome_labels`` — the majority response type of a point (Fig. 12);
* ``level_labels`` — the discretised error-rate level of a point
  (Figs. 13a/13b and the decision tree of Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..injection.campaign import CampaignResult
from ..injection.space import InjectionPoint
from ..profiling.profiler import ApplicationProfile
from ..pruning.mldriven import Labeler, LevelScheme, level_labeler, outcome_labeler
from .features import FEATURE_NAMES, features_matrix

OUTCOME_LABEL_NAMES: tuple[str, ...] = outcome_labeler()[1]


@dataclass
class Dataset:
    """A supervised dataset over injection points."""

    X: np.ndarray
    y: np.ndarray
    points: list[InjectionPoint]
    feature_names: tuple[str, ...]
    label_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            self.X[idx],
            self.y[idx],
            [self.points[i] for i in np.atleast_1d(idx)],
            self.feature_names,
            self.label_names,
        )


def _labels(
    campaign: CampaignResult, labeler: Labeler
) -> tuple[list[InjectionPoint], np.ndarray]:
    points = sorted(campaign.points)
    return points, np.array([labeler(campaign.points[p]) for p in points], dtype=np.int64)


def outcome_labels(campaign: CampaignResult) -> tuple[list[InjectionPoint], np.ndarray]:
    """Points and their majority-outcome label indices."""
    return _labels(campaign, outcome_labeler()[0])


def level_labels(
    campaign: CampaignResult, scheme: LevelScheme
) -> tuple[list[InjectionPoint], np.ndarray]:
    """Points and their error-rate-level label indices."""
    return _labels(campaign, level_labeler(scheme)[0])


def build_outcome_dataset(
    profile: ApplicationProfile, campaign: CampaignResult
) -> Dataset:
    points, y = outcome_labels(campaign)
    return Dataset(
        features_matrix(profile, points), y, points, FEATURE_NAMES, OUTCOME_LABEL_NAMES
    )


def build_level_dataset(
    profile: ApplicationProfile, campaign: CampaignResult, scheme: LevelScheme
) -> Dataset:
    points, y = level_labels(campaign, scheme)
    return Dataset(
        features_matrix(profile, points), y, points, FEATURE_NAMES, tuple(scheme.names)
    )


def merge_datasets(datasets: list[Dataset]) -> Dataset:
    """Concatenate compatible datasets (e.g. NPB + LAMMPS points)."""
    if not datasets:
        raise ValueError("nothing to merge")
    first = datasets[0]
    for d in datasets[1:]:
        if d.feature_names != first.feature_names or d.label_names != first.label_names:
            raise ValueError("datasets have incompatible schemas")
    return Dataset(
        np.vstack([d.X for d in datasets]),
        np.concatenate([d.y for d in datasets]),
        [p for d in datasets for p in d.points],
        first.feature_names,
        first.label_names,
    )
