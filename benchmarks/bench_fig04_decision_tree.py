"""Figure 4 — an example decision tree from the trained model.

The paper's Fig. 4 shows one decision tree produced by FastFIT's
training: non-leaf nodes test application features (Type, Phase,
ErrHal, nInv, StackDep, nDiffStack), leaves are the four sensitivity
levels.  This benchmark trains on a real campaign and renders one tree.
"""

import common

from repro.pruning.mldriven import QUARTILE_LEVELS
from repro.ml import DecisionTreeClassifier, FEATURE_NAMES, build_level_dataset


def bench_fig04_decision_tree(benchmark):
    profile = common.get_profile("lammps")
    campaign = common.run_campaign("lammps", param_policy="buffer", seed=41)
    ds = build_level_dataset(profile, campaign, QUARTILE_LEVELS)

    def train():
        return DecisionTreeClassifier(max_depth=4, min_samples_leaf=2).fit(ds.X, ds.y)

    tree = benchmark(train)
    rendered = tree.render(list(FEATURE_NAMES), list(ds.label_names))
    print()
    print("Fig. 4: example decision tree over the six application features")
    print(rendered)

    # Shape: the tree must actually use the application features and
    # reach sensitivity-level leaves.
    assert any(name in rendered for name in FEATURE_NAMES)
    assert any(level in rendered for level in QUARTILE_LEVELS.names)
    # Training accuracy must beat the majority class (the tree learned
    # something from the features).
    import numpy as np

    majority = max(np.bincount(ds.y)) / len(ds.y)
    acc = float((tree.predict(ds.X) == ds.y).mean())
    print(f"training accuracy {acc:.0%} vs majority baseline {majority:.0%}")
    assert acc >= majority
