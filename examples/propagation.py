"""Error propagation and the adequacy of a per-point test count.

Two capabilities beyond the paper's evaluation:

1. **blast radius** — for faults that don't crash the job, how many
   ranks end up with corrupted results?  Collective semantics predict
   the pattern (allreduce: all-or-nothing; rooted gathers: contained).
2. **statistical adequacy** of the chosen test count (Wilson
   intervals), on a campaign that ``--db`` keeps in a campaign
   database, which ``fastfit stats --db`` and ``fastfit report --db``
   read back without running anything.

Usage::

    python examples/propagation.py [--db /tmp/fastfit.db]
"""

import argparse

from repro import FastFIT
from repro.injection import enumerate_points
from repro.injection.propagation import propagation_study
from repro.report.text import render_table
from repro.steer.stopping import required_tests, wilson_interval


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", default=None, help="keep the campaign in this database")
    parser.add_argument("--tests", type=int, default=15)
    args = parser.parse_args()

    ff = FastFIT.for_app(
        "cg", "T", tests_per_point=args.tests, param_policy="buffer", db_path=args.db
    )
    profile = ff.profile()

    # -- propagation: compare collective semantics ---------------------
    points = enumerate_points(profile)
    rows = []
    for coll in ("Allreduce", "Reduce_scatter", "Gatherv"):
        point = next((p for p in points if p.collective == coll), None)
        if point is None:
            continue
        prop = propagation_study(
            ff.app, profile, point, tests=args.tests, param_policy="sendbuf", seed=2
        )
        rows.append(
            [
                coll,
                f"{prop.mean_blast_radius:.2f}/{prop.nranks}",
                f"{prop.global_taint_rate:.0%}",
                f"{prop.containment_rate:.0%}",
            ]
        )
    print(
        render_table(
            ["collective", "mean blast radius", "global taint", "contained"],
            rows,
            title="fault propagation by collective semantics",
        )
    )

    # -- campaign + statistical adequacy --------------------------------
    campaign = ff.campaign()
    n = args.tests
    sample = next(iter(campaign.points.values()))
    iv = wilson_interval(sum(1 for t in sample.tests if t.outcome.is_error), n)
    print()
    print(
        f"example point error rate {iv.rate:.2f}, 95% CI [{iv.low:.2f}, {iv.high:.2f}] "
        f"at n={n}; quartile-level discrimination needs n≥{required_tests(0.125)}"
    )

    if args.db:
        print(f"campaign stored in {args.db}; try: fastfit report --db {args.db}")


if __name__ == "__main__":
    main()
