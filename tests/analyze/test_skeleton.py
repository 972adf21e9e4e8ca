"""The skeleton read off the golden profile: one op per profiled call,
and a dirty app's failed golden run names the cross-rank disagreement."""

from __future__ import annotations

from typing import Any, Generator

import pytest

from repro.apps import make_app
from repro.apps.base import Application
from repro.analyze import SkeletonExtractionError, extract_skeleton, mutate_op, replace_skeleton
from repro.injection import enumerate_points
from repro.profiling import profile_application
from repro.simmpi import MPIError


class DisagreeApp(Application):
    """Rank 1 calls ``Barrier`` where its three peers call ``Allreduce``."""

    name = "disagree"

    @classmethod
    def class_params(cls, problem_class: str) -> dict[str, Any]:
        return dict(nranks=4)

    def main(self, ctx) -> Generator:
        a = ctx.alloc(4, ctx.DOUBLE, "a")
        b = ctx.alloc(4, ctx.DOUBLE, "b")
        if ctx.rank == 1:
            yield from ctx.Barrier(ctx.WORLD)
        else:
            yield from ctx.Allreduce(a.addr, b.addr, 4, ctx.DOUBLE, ctx.SUM, ctx.WORLD)
        return 0


@pytest.fixture(scope="module")
def is_app():
    return make_app("is", "T")


@pytest.fixture(scope="module")
def is_skeleton(is_app):
    return extract_skeleton(is_app)


def test_skeleton_covers_every_rank(is_app, is_skeleton):
    assert is_skeleton.nranks == is_app.nranks
    assert len(is_skeleton.ranks) == is_app.nranks
    assert all(is_skeleton.ranks[r] for r in range(is_app.nranks))


def test_skeleton_sites_match_profile(is_app, is_skeleton):
    """Every (collective, site, invocation) the profiler observes must
    appear in the skeleton, and vice versa."""
    profile = profile_application(is_app)
    profiled = {
        (p.rank, p.collective, p.site, p.invocation)
        for p in enumerate_points(profile)
    }
    skeletal = set(is_skeleton.op_index())
    assert profiled == skeletal


def test_skeleton_ops_carry_concrete_arguments(is_skeleton):
    for ops in is_skeleton.ranks:
        for op in ops:
            assert op.name
            assert op.site
            assert op.invocation >= 0
            assert isinstance(op.args, dict)


def test_op_index_is_unique(is_skeleton):
    index = is_skeleton.op_index()
    n_ops = sum(len(ops) for ops in is_skeleton.ranks)
    # One entry per (rank, collective, site, invocation): no collisions.
    assert sum(1 for _ in index) == len(index)
    assert len(index) == n_ops


def test_handle_tables_resolve_live_handles(is_skeleton):
    comms = is_skeleton.comms
    for op in is_skeleton.ranks[0]:
        handle = op.args.get("comm")
        if handle is None:
            continue
        state, resolved = comms.resolve_static(int(handle))
        assert state == "live"
        assert resolved == int(handle)


def test_datatype_table_knows_element_sizes(is_skeleton):
    sizes = is_skeleton.datatypes.sizes
    assert sizes, "datatype table must record element sizes"
    assert all(s > 0 for s in sizes.values())


def test_mutate_op_replaces_one_field(is_skeleton):
    mutated = mutate_op(is_skeleton, 0, 0, site="elsewhere:1")
    assert mutated.ranks[0][0].site == "elsewhere:1"
    # The original is untouched (skeletons are value objects).
    assert is_skeleton.ranks[0][0].site != "elsewhere:1"
    assert mutated.ranks[1] == is_skeleton.ranks[1]


def test_replace_skeleton_swaps_rank_sequences(is_skeleton):
    ranks = list(is_skeleton.ranks)
    ranks[0] = list(ranks[0][:-1])
    shorter = replace_skeleton(is_skeleton, ranks)
    assert len(shorter.ranks[0]) == len(is_skeleton.ranks[0]) - 1


def test_extraction_is_deterministic(is_app):
    a = extract_skeleton(is_app)
    b = extract_skeleton(is_app)
    assert a.op_index().keys() == b.op_index().keys()
    for ops_a, ops_b in zip(a.ranks, b.ranks):
        assert [o.args for o in ops_a] == [o.args for o in ops_b]


def test_dirty_app_names_the_disagreement():
    """The golden run dies on one rank; extraction still reports which
    ranks disagree about the collective, and how."""
    with pytest.raises(SkeletonExtractionError) as exc:
        extract_skeleton(DisagreeApp.from_problem_class("T"))
    message = str(exc.value)
    assert "order_mismatch" in message
    for rank in range(4):
        assert f"rank {rank}: " in message
    assert "Barrier@" in message and "Allreduce@" in message
    assert isinstance(exc.value.__cause__, MPIError)
