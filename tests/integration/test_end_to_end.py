"""End-to-end integration: paper-shaped behaviours on tiny workloads.

These tests assert the qualitative *shapes* the paper reports, on
problem class T so the suite stays fast; the full 32-rank versions live
in the benchmark harness.
"""

import numpy as np
import pytest

from repro import FastFIT
from repro.pruning.mldriven import PAPER_3_LEVELS, level_distribution
from repro.injection import Campaign, Outcome, enumerate_points
from repro.ml import correlation_table
from repro.pruning import select_context, select_semantic


@pytest.fixture(scope="module")
def lammps_reps(lammps_profile):
    sem = select_semantic(lammps_profile)
    ctx = select_context(lammps_profile, sem.selected_points_list)
    return ctx.selected_points_list


@pytest.fixture(scope="module")
def lammps_campaign_all(lammps_app, lammps_profile, lammps_reps):
    campaign = Campaign(
        lammps_app, lammps_profile, tests_per_point=12, param_policy="buffer", seed=5
    )
    return campaign.run(lammps_reps)


def test_pruning_shrinks_space_substantially(lammps_profile, lammps_reps):
    total = len(enumerate_points(lammps_profile))
    assert len(lammps_reps) < total * 0.5


def test_lammps_success_dominates(lammps_campaign_all):
    """Paper Fig. 10: ~65 % of LAMMPS buffer-fault tests succeed."""
    fractions = lammps_campaign_all.outcome_fractions()
    assert fractions[Outcome.SUCCESS] > 0.4
    assert max(fractions, key=fractions.get) is Outcome.SUCCESS


def test_lammps_inf_loop_is_rare(lammps_campaign_all):
    fractions = lammps_campaign_all.outcome_fractions()
    assert fractions[Outcome.INF_LOOP] <= min(
        fractions[Outcome.SUCCESS], 0.25
    )


def test_lammps_allreduce_low_error_rate(lammps_campaign_all):
    """Paper Fig. 11: MPI_Allreduce shows a low error rate despite
    dominating the collective mix."""
    per_coll = lammps_campaign_all.by_collective()
    rates = {name: np.mean(c.error_rates()) for name, c in per_coll.items()}
    assert rates["Allreduce"] <= 0.75
    dist = level_distribution(per_coll["Allreduce"].error_rates(), PAPER_3_LEVELS)
    assert dist["low"] + dist["med"] >= dist["high"]


def test_correlation_table_in_unit_interval(lammps_profile, lammps_campaign_all):
    table = correlation_table(lammps_profile, lammps_campaign_all)
    assert all(0.0 <= v <= 1.0 for v in table.values())


def test_fastfit_total_reduction_grows_with_stages(lammps_app):
    ff = FastFIT(lammps_app, seed=0, tests_per_point=4)
    report = ff.run(threshold=0.4, batch_size=6)
    row = report.table3_row()
    assert row["Total"] >= report.pruning.combined_reduction - 1e-9
    assert 0.0 < row["Total"] < 1.0


def test_barrier_faults_are_severe(lu_app, lu_profile):
    """Paper Figs. 8/11: faulty MPI_Barrier is lethal (its only
    parameter is the communicator)."""
    points = [p for p in enumerate_points(lu_profile) if p.collective == "Barrier"]
    campaign = Campaign(lu_app, lu_profile, tests_per_point=15, param_policy="buffer", seed=2)
    result = campaign.run(points[:2])
    rates = result.error_rates()
    assert np.mean(rates) > 0.5
