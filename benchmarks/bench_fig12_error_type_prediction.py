"""Figure 12 — error-type prediction accuracy of the random forest.

Paper setup: train on fault-injection results (NPB + LAMMPS), split the
labelled set 5× at random, report per-error-type prediction accuracy.
Paper numbers: SUCCESS 86 %, APP_DETECTED 80 %, WRONG_ANS 75 % — and a
notably *low* SEG_FAULT accuracy (47 %, weakly correlated with the
chosen features).  Expected shape: SUCCESS/APP_DETECTED predicted well;
overall accuracy far above chance.
"""

import common
import numpy as np

from repro.report.text import render_bars
from repro.apps import NPB_NAMES
from repro.ml import (
    RandomForestClassifier,
    build_outcome_dataset,
    evaluate_model,
    merge_datasets,
)


def _dataset():
    """NPB + LAMMPS points from both campaign flavours (buffer-only and
    all-parameter faults), for response-type diversity."""
    parts = []
    for name in (*NPB_NAMES, "lammps"):
        profile = common.get_profile(name)
        seed = 10 if name == "lammps" else 8
        mp = 30 if name == "lammps" else 24
        campaign = common.run_campaign(name, param_policy="buffer", seed=seed, max_points=mp)
        parts.append(build_outcome_dataset(profile, campaign))
    return merge_datasets(parts)


def bench_fig12_error_type_prediction(benchmark):
    ds = _dataset()

    def evaluate():
        return evaluate_model(
            lambda rep: RandomForestClassifier(n_estimators=24, seed=rep),
            ds.X,
            ds.y,
            ds.label_names,
            repeats=5,
            seed=12,
        )

    result = common.once(benchmark, evaluate)
    per_class = result.as_dict()
    print()
    print(
        render_bars(
            per_class,
            title=f"Fig. 12: error-type prediction accuracy (n={len(ds)}, overall={result.overall_accuracy:.0%})",
        )
    )

    assert result.overall_accuracy > 1.0 / 6.0 + 0.2, "must beat chance clearly"
    # SUCCESS — the most common, feature-correlated type — predicts well.
    assert per_class.get("SUCCESS", 0.0) >= 0.6
    present = [v for v in per_class.values() if not np.isnan(v)]
    assert np.mean(present) >= 0.4
