"""Quickstart: profile, prune, inject, and summarise in ~30 lines.

Runs the full FastFIT pipeline on the LU kernel (tiny problem class)
and prints the Table III-style reduction summary plus the response mix.

Usage::

    python examples/quickstart.py
"""

from repro import FastFIT
from repro.report.text import render_bars

def main() -> None:
    # 1. Pick a workload and build the tool around it.
    ff = FastFIT.for_app("lu", "T", tests_per_point=15, param_policy="all")

    # 2. Profiling phase: one clean run collects call sites, stacks,
    #    call graphs, and the golden results (a one-time cost).
    profile = ff.profile()
    print(f"profiled {profile.app_name}: {profile.total_injection_points()} "
          f"injection points across {profile.nranks} ranks")

    # 3. Pruning: semantic (MPI) + application-context reduction.
    pruning = ff.prune()
    print(f"semantic reduction:  {pruning.semantic_reduction:.1%}")
    print(f"context reduction:   {pruning.context_reduction:.1%}")
    print(f"representative points: {len(pruning.representative_points)}")

    # 4. Fault-injection campaign over the representatives.
    campaign = ff.campaign()
    print()
    print(render_bars(
        {o.value: f for o, f in campaign.outcome_fractions().items()},
        title="response types (Table I)",
    ))

    # 5. The Table III row for this study.
    report = ff.run(threshold=None)
    print()
    print(report.describe())


if __name__ == "__main__":
    main()
