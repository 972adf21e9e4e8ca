"""NPB sensitivity study: the paper's § V-C analysis on the four kernels.

For each of IS / FT / MG / LU:

* prune the injection space (semantic + context),
* run a buffer-fault campaign over the representatives,
* report the response-type mix (Fig. 7 style) and per-collective
  error-rate levels (Fig. 8 style).

Usage::

    python examples/npb_sensitivity.py [--class T|S] [--tests N]
"""

import argparse

from repro import FastFIT
from repro.pruning.mldriven import PAPER_3_LEVELS, level_distribution
from repro.report.text import render_grouped_bars
from repro.apps import NPB_NAMES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem-class", default="T", choices=("T", "S", "A"))
    parser.add_argument("--tests", type=int, default=12, help="tests per injection point")
    args = parser.parse_args()

    type_groups = {}
    rates_by_collective: dict[str, list[float]] = {}

    for name in NPB_NAMES:
        ff = FastFIT.for_app(
            name, args.problem_class, tests_per_point=args.tests, param_policy="buffer"
        )
        pruning = ff.prune()
        campaign = ff.campaign()
        print(
            f"{name.upper():6s}: {pruning.total_points:5d} points -> "
            f"{len(pruning.representative_points):3d} representatives "
            f"({pruning.combined_reduction:.1%} pruned)"
        )
        type_groups[name.upper()] = {
            o.value: f for o, f in campaign.outcome_fractions().items()
        }
        for coll, sub in campaign.by_collective().items():
            rates_by_collective.setdefault(coll, []).extend(sub.error_rates())

    print()
    print(render_grouped_bars(type_groups, title="NPB response types (Fig. 7 style)"))
    print()
    level_groups = {
        coll: level_distribution(rates, PAPER_3_LEVELS)
        for coll, rates in sorted(rates_by_collective.items())
    }
    print(
        render_grouped_bars(
            level_groups, title="error-rate levels per collective (Fig. 8 style)"
        )
    )


if __name__ == "__main__":
    main()
