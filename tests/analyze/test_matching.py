"""Collective-matching checker: clean on correct apps, and the
registry's seeded ``analyze`` mutants (a defect the checker cannot see
is the failure)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import make_app
from repro.analyze import check_skeleton, extract_skeleton, mutate_op, replace_skeleton
from repro.analyze.skeleton import shift_root, swap_reduce_op

from tests.verify.test_mutant_selftest import caught_then_cured, layer


@pytest.mark.parametrize("name", ["is", "ft", "lu"])
def test_registered_apps_are_clean(name):
    report = check_skeleton(extract_skeleton(make_app(name, "T")))
    assert report.ok, report.describe()
    assert report.n_ops > 0
    assert report.n_comms >= 1


@pytest.mark.parametrize("name", layer("analyze"))
def test_every_seeded_mutant_is_detected(name):
    caught_then_cured(name, app=make_app("is", "T"))


def test_root_disagreement_is_flagged():
    sk = extract_skeleton(make_app("is", "T"))
    for i, op in enumerate(sk.ranks[1]):
        if op.root_world is not None:
            bad = mutate_op(sk, 1, i, root_world=(op.root_world + 1) % sk.nranks)
            break
    else:
        pytest.skip("app issues no rooted collectives")
    report = check_skeleton(bad)
    assert not report.ok
    assert any(f.rule == "root_mismatch" for f in report.errors)


def test_dropped_call_reports_structural_deadlock():
    sk = extract_skeleton(make_app("is", "T"))
    ranks = list(sk.ranks)
    ranks[0] = list(ranks[0][:-1])
    report = check_skeleton(replace_skeleton(sk, ranks))
    assert not report.ok
    assert any(f.rule == "length_mismatch" for f in report.errors)


def test_count_volume_disagreement_is_flagged():
    sk = extract_skeleton(make_app("is", "T"))
    for i, op in enumerate(sk.ranks[0]):
        if op.name == "Allreduce" and "count" in op.args:
            bad = mutate_op(
                sk, 0, i, args={**op.args, "count": int(op.args["count"]) + 1}
            )
            break
    else:
        pytest.skip("app issues no counted Allreduce")
    report = check_skeleton(bad)
    assert not report.ok
    assert any(f.rule == "count_mismatch" for f in report.errors)


def test_findings_carry_rank_attribution():
    sk = extract_skeleton(make_app("is", "T"))
    mutated = shift_root(sk)
    report = check_skeleton(mutated)
    flagged = [f for f in report.errors if f.rule == "root_mismatch"]
    assert flagged and any(1 in f.ranks for f in flagged)


def test_mutants_are_value_preserving():
    """Applying a mutant must not corrupt the shared baseline skeleton."""
    sk = extract_skeleton(make_app("is", "T"))
    before = [dataclasses.replace(op) for op in sk.ranks[1]]
    swap_reduce_op(sk)
    assert sk.ranks[1] == before
