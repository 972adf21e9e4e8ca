"""Ablation 4 — random forest vs single tree vs majority-class baseline.

Justifies the learner choice of § III-C on the Fig. 13 task (two-level
error-rate prediction over NPB + LAMMPS points): the forest should beat
a majority-class predictor clearly and match or beat a single tree.
"""

import common
import numpy as np

from repro.pruning.mldriven import EVEN_2_LEVELS
from repro.report.text import render_table
from repro.apps import NPB_NAMES
from repro.ml import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    build_level_dataset,
    evaluate_model,
    merge_datasets,
)


class MajorityClass:
    """Predict the most frequent training label (the null model)."""

    def fit(self, X, y):
        self.label = int(np.bincount(y).argmax())
        return self

    def predict(self, X):
        return np.full(len(X), self.label, dtype=np.int64)


def _dataset():
    parts = []
    for name in (*NPB_NAMES, "lammps"):
        profile = common.get_profile(name)
        seed = 10 if name == "lammps" else 8
        mp = 30 if name == "lammps" else 24
        campaign = common.run_campaign(name, param_policy="buffer", seed=seed, max_points=mp)
        parts.append(build_level_dataset(profile, campaign, EVEN_2_LEVELS))
    return merge_datasets(parts)


def bench_ablation_ml_baselines(benchmark):
    ds = _dataset()

    factories = {
        "majority class": lambda rep: MajorityClass(),
        "single tree": lambda rep: DecisionTreeClassifier(max_depth=8),
        "random forest": lambda rep: RandomForestClassifier(n_estimators=24, seed=rep),
    }

    def evaluate():
        return {
            name: evaluate_model(factory, ds.X, ds.y, ds.label_names, repeats=5, seed=4)
            for name, factory in factories.items()
        }

    results = common.once(benchmark, evaluate)
    print()
    print(
        render_table(
            ["model", "overall accuracy"],
            [[name, f"{r.overall_accuracy:.1%}"] for name, r in results.items()],
            title="Ablation: learner choice on the 2-level prediction task",
        )
    )

    majority = results["majority class"].overall_accuracy
    tree = results["single tree"].overall_accuracy
    forest = results["random forest"].overall_accuracy
    assert forest > majority + 0.05, "the forest must beat the null model"
    assert forest >= tree - 0.05, "bagging should not lose to one tree"
