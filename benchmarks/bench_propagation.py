"""Extension — error-propagation blast radius per collective semantics.

Beyond the paper's outcome taxonomy (the introduction flags "how errors
propagate between the application processes" as unexplored): for clean-
exit runs, count the ranks whose final result signature diverged from
the golden run.  Collective semantics predict the pattern:

* Allreduce delivers one combined result to everyone → corruption is
  all-or-nothing (global blast radius);
* a non-root Gather contribution reaches only the root's buffer → the
  blast radius is contained.
"""

import common

from repro.injection.propagation import propagation_study
from repro.report.text import render_table
from repro.injection import enumerate_points


def bench_propagation(benchmark):
    app = common.get_app("lu")
    profile = common.get_profile("lu")
    points = enumerate_points(profile)
    allreduce = next(p for p in points if p.collective == "Allreduce")

    def run():
        return propagation_study(
            app, profile, allreduce, tests=25, param_policy="sendbuf", seed=12
        )

    prop = common.once(benchmark, run)
    rows = [
        [
            str(prop.point),
            f"{prop.mean_blast_radius:.2f}/{prop.nranks}",
            f"{prop.global_taint_rate:.0%}",
            f"{prop.containment_rate:.0%}",
            sum(1 for t in prop.tainted if t is None),
        ]
    ]
    print()
    print(
        render_table(
            ["point", "mean blast radius", "global taint", "contained", "aborted runs"],
            rows,
            title="Extension: fault propagation through an Allreduce",
        )
    )

    # Allreduce semantics: taint is all-or-nothing.
    for taint in prop.completed:
        assert len(taint) in (0, prop.nranks)
    # Some corruption must actually propagate for the study to be
    # meaningful (sendbuf faults reach everyone unless masked).
    assert prop.global_taint_rate > 0.0
