"""Figure 3 — error-rate distribution over same-call-stack invocations
of one mini-LAMMPS MPI_Allreduce call site.

Paper setup: one LAMMPS Allreduce site invoked 107 times; 100
invocations share a call stack; 100 buffer-fault tests each.  The
per-invocation error rates concentrate (paper: Gaussian with mean
29.58 %, std 7.69).  Expected shape here: a unimodal concentration —
std well below the full 0–100 % spread.
"""

import common
import numpy as np

from repro.pruning.context import fit_error_rates, histogram
from repro.report.text import render_histogram
from repro.injection import Campaign, enumerate_points

#: A longer-running mini-LAMMPS so one thermo site has many
#: same-stack invocations (the paper uses 100 of 107).
MD_PARAMS = dict(
    cells=(3, 4, 4),
    spacing=1.25,
    steps=50,
    dt=0.005,
    temperature=0.6,
    cutoff=2.5,
    reneighbor=5,
    seed=2015,
)
NRANKS = 4


def _same_stack_invocations(profile):
    """The error-handling Allreduce site on rank 0 with the most
    same-stack invocations.

    The paper's LAMMPS site shows a mid-range mean error rate (29.58 %);
    the matching sites here are the ``check_*`` allreduces, whose flag
    buffers make faults probabilistically — not always — fatal.  (The
    thermo allreduce would be degenerate: its values only feed output.)
    """
    from repro.ml.features import stack_is_errhal

    best = None
    for (rank, key), summary in profile.summaries.items():
        if rank != 0 or key[0] != "Allreduce":
            continue
        for stack, invs in summary.stack_groups.items():
            if not stack_is_errhal(stack):
                continue
            if best is None or len(invs) > len(best[2]):
                best = (key, stack, invs)
    return best


def bench_fig03_invocation_distribution(benchmark):
    from repro.apps import MiniMD
    from repro.profiling import profile_application

    app = MiniMD(NRANKS, **MD_PARAMS)
    profile = profile_application(app)
    key, stack, invocations = _same_stack_invocations(profile)
    invocations = invocations[: min(len(invocations), 36)]
    points = [
        p
        for p in enumerate_points(profile)
        if p.rank == 0 and p.site_key == key and p.invocation in set(invocations)
    ]

    def run():
        campaign = Campaign(app, profile, tests_per_point=25, param_policy="buffer", seed=3)
        return campaign.run(points)

    result = common.once(benchmark, run)
    rates = [100.0 * pr.error_rate for pr in result.points.values()]
    fit = fit_error_rates(rates)
    edges, counts = histogram(rates, bin_width=5.0)
    print()
    print(
        render_histogram(
            edges,
            counts,
            title=(
                f"Fig. 3: error rate over {len(rates)} same-stack invocations "
                f"of {key[0]}@{key[1]} (mean={fit.mean:.2f}%, std={fit.std:.2f})"
            ),
        )
    )

    # The paper's claim: same-stack invocations respond alike — the
    # distribution is concentrated (paper: std 7.69 around mean 29.58),
    # not spread over the whole 0-100 % range, and the faults matter
    # (non-degenerate mean).
    assert fit.std < 25.0, "same-stack invocations should have similar error rates"
    assert 10.0 < fit.mean < 90.0, "the site's faults should matter probabilistically"
    spread = np.ptp(np.asarray(rates))
    print(f"spread: {spread:.1f} percentage points, std: {fit.std:.2f}")
