"""Figure 13 — error-rate-level prediction accuracy (2 and 3 levels).

Paper setup: the error-rate range divided evenly into 2 (Fig. 13a) or
3 (Fig. 13b) levels; repeated random splits.  Paper numbers: 2-level
>80 % for both classes; 3-level low >76 %, high >66 %.  Expected
shape: strong two-level accuracy, somewhat weaker three-level accuracy.
"""

import common

from repro.pruning.mldriven import EVEN_2_LEVELS, EVEN_3_LEVELS
from repro.report.text import render_bars
from repro.apps import NPB_NAMES
from repro.ml import (
    RandomForestClassifier,
    build_level_dataset,
    evaluate_model,
    merge_datasets,
)


def _dataset(scheme):
    """NPB + LAMMPS points from both campaign flavours, for level
    diversity (buffer faults skew low, parameter faults skew high)."""
    parts = []
    for name in (*NPB_NAMES, "lammps"):
        profile = common.get_profile(name)
        seed = 10 if name == "lammps" else 8
        mp = 30 if name == "lammps" else 24
        campaign = common.run_campaign(name, param_policy="buffer", seed=seed, max_points=mp)
        parts.append(build_level_dataset(profile, campaign, scheme))
    return merge_datasets(parts)


def bench_fig13_error_level_prediction(benchmark):
    ds2 = _dataset(EVEN_2_LEVELS)
    ds3 = _dataset(EVEN_3_LEVELS)

    def evaluate():
        out = {}
        for label, ds in (("two levels", ds2), ("three levels", ds3)):
            out[label] = evaluate_model(
                lambda rep: RandomForestClassifier(n_estimators=24, seed=rep),
                ds.X,
                ds.y,
                ds.label_names,
                repeats=5,
                seed=13,
            )
        return out

    results = common.once(benchmark, evaluate)
    print()
    for label, result in results.items():
        print(
            render_bars(
                result.as_dict(),
                title=f"Fig. 13 ({label}): per-level accuracy, overall={result.overall_accuracy:.0%}",
            )
        )

    two = results["two levels"]
    three = results["three levels"]
    # Two-level classification is strong (paper: >80 %).
    assert two.overall_accuracy >= 0.7
    # Three-level is harder but still far above the 1/3 chance level.
    assert three.overall_accuracy >= 0.5
    # The dominant class of each scheme predicts well.
    assert max(two.as_dict().values()) >= 0.75
    assert max(three.as_dict().values()) >= 0.6
