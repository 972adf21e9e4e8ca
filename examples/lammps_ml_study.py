"""Mini-LAMMPS ML-driven study: the paper's learning loop end to end.

Demonstrates the coupled injection/learning phases (§ IV-C/D): inject a
batch, train the random forest, verify on the next batch, stop at the
accuracy threshold, and predict the untested points.  Then prints the
feature ↔ sensitivity correlations (Table IV style) and an example
decision tree (Fig. 4 style).

Usage::

    python examples/lammps_ml_study.py [--threshold 0.65]
"""

import argparse

from repro import FastFIT
from repro.pruning.mldriven import QUARTILE_LEVELS
from repro.report.text import render_table
from repro.ml import (
    FEATURE_NAMES,
    TABLE4_FEATURES,
    build_level_dataset,
    correlation_table,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.65)
    parser.add_argument("--tests", type=int, default=10)
    args = parser.parse_args()

    ff = FastFIT.for_app("lammps", "T", tests_per_point=args.tests, param_policy="buffer")
    pruning = ff.prune()
    print(
        f"pruned {pruning.total_points} points to "
        f"{len(pruning.representative_points)} representatives"
    )

    # The learning loop: inject -> verify -> retrain -> predict, walking
    # the seeded point order with every test stream in full.
    ml = ff.learn(threshold=args.threshold, batch_size=4)
    print(f"accuracy trajectory: {[f'{a:.0%}' for a in ml.accuracy_history]}")
    print(
        f"tested {len(ml.tested)} points, predicted {len(ml.predicted)} "
        f"({ml.test_reduction:.1%} of tests skipped)"
    )
    if ml.predicted:
        sample = list(ml.predicted.items())[:5]
        rows = [[str(pt), ml.label_names[label]] for pt, label in sample]
        print(render_table(["predicted point", "sensitivity"], rows))

    # Feature ↔ sensitivity correlations (Table IV style).
    campaign = ff.campaign(points=sorted(ml.tested), tests_per_point=args.tests)
    table = correlation_table(ff.profile(), campaign)
    print()
    print(
        render_table(
            list(TABLE4_FEATURES),
            [[f"{table[k]:.2f}" for k in TABLE4_FEATURES]],
            title="feature vs sensitivity correlation (Eq. 1, Table IV style)",
        )
    )

    # One tree of the forest, rendered (Fig. 4 style).
    if ml.model is not None and ml.model.trees:
        ds = build_level_dataset(ff.profile(), campaign, QUARTILE_LEVELS)
        print()
        print("example decision tree (Fig. 4 style):")
        print(ml.model.trees[0].render(list(FEATURE_NAMES), list(ds.label_names)))


if __name__ == "__main__":
    main()
