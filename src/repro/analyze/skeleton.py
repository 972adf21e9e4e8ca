"""The collective skeleton (static pass 1, input to the others).

A *skeleton* is the per-rank sequence of collective invocations an
application performs, captured symbolically: collective name, call site,
communicator group, root, counts, datatypes, reduction ops, and buffer
addresses — everything the matching checker and the fault-outcome
pre-classifier need, and nothing payload-specific.

It is read off the golden profile: the profiler records each call as a
:class:`~repro.profiling.comm_profile.CallInfo` (``SkeletonOp`` here) in
the one fault-free run every campaign already pays for, and the profile
keeps that run's job-end handle tables.  :func:`skeleton_from_profile`
only regroups those records per rank, so skeleton call sites, invocation
counters, and sequence numbers *are* the profile's — a skeleton op joins
an :class:`~repro.injection.space.InjectionPoint` by key.

An application whose ranks disagree about the next collective fails its
golden run, usually with a truncation error on one rank;
:func:`extract_skeleton` then checks the calls recorded before the
failure and names the disagreement and every rank involved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..apps.base import Application
from ..profiling.comm_profile import CallInfo
from ..profiling.profiler import ApplicationProfile, golden_run
from ..simmpi.handles import HandleTable

#: One rank's symbolic record of one collective invocation: the
#: profiler's per-call record.
SkeletonOp = CallInfo


class SkeletonExtractionError(RuntimeError):
    """The golden run failed — structural bug in the app.

    Carries the run's error and the matching checker's findings over
    the calls recorded before it: exactly the class of defect the
    checker exists to report, surfaced at extraction time.
    """


@dataclass
class Skeleton:
    """The full symbolic communication skeleton of one application run."""

    app_name: str
    nranks: int
    arena_base: int
    arena_size: int
    algorithms: dict[str, str]
    datatypes: HandleTable
    reduce_ops: HandleTable
    comms: HandleTable
    ranks: list[list[SkeletonOp]]

    @property
    def n_ops(self) -> int:
        return sum(len(seq) for seq in self.ranks)

    def op_index(self) -> dict[tuple[int, str, str, int], SkeletonOp]:
        """``(rank, collective, site, invocation) -> op`` lookup."""
        index: dict[tuple[int, str, str, int], SkeletonOp] = {}
        for seq in self.ranks:
            for op in seq:
                index[op.point_key] = op
        return index


def skeleton_from_profile(profile: ApplicationProfile) -> Skeleton:
    """The skeleton of the run ``profile`` records."""
    return Skeleton(
        app_name=profile.app_name,
        nranks=profile.nranks,
        arena_base=profile.arena_base,
        arena_size=profile.arena_size,
        algorithms=dict(profile.algorithms),
        datatypes=profile.datatypes,
        reduce_ops=profile.reduce_ops,
        comms=profile.comms,
        ranks=[profile.comm.calls_by_rank(r) for r in range(profile.nranks)],
    )


def extract_skeleton(app: Application, algorithms: dict[str, str] | None = None) -> Skeleton:
    """Profile ``app`` and build its skeleton (for callers without a
    profile).  A failed golden run raises
    :class:`SkeletonExtractionError` with the run's error and the
    matching checker's report on the calls recorded before it."""
    from .matching import check_skeleton  # matching imports this module

    profile, error = golden_run(app, algorithms=algorithms)
    skeleton = skeleton_from_profile(profile)
    if error is not None:
        raise SkeletonExtractionError(
            f"golden run of {app.name!r} failed: {error}\n"
            f"{check_skeleton(skeleton).describe()}"
        ) from error
    return skeleton


def mutate_op(skeleton: Skeleton, rank: int, index: int, **changes: Any) -> Skeleton:
    """Return a copy of ``skeleton`` with one op replaced."""
    ranks = [list(seq) for seq in skeleton.ranks]
    ranks[rank][index] = replace(ranks[rank][index], **changes)
    return replace_skeleton(skeleton, ranks)


def replace_skeleton(skeleton: Skeleton, ranks: list[list[SkeletonOp]]) -> Skeleton:
    return replace(skeleton, ranks=ranks, algorithms=dict(skeleton.algorithms))


# -- seeded defects: the cross-rank bugs the matching checker must catch
# (wired in as ``skeleton_from_profile`` patches by :mod:`repro.verify.mutants`)

def swap_adjacent_collectives(sk: Skeleton) -> Skeleton:
    """Rank 1 issues two adjacent collectives in the opposite order."""
    seq = list(sk.ranks[1])
    for i in range(len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        if a.name != b.name and a.comm_context == b.comm_context:
            seq[i] = replace(b, seq=a.seq)
            seq[i + 1] = replace(a, seq=b.seq)
            ranks = list(sk.ranks)
            ranks[1] = seq
            return replace_skeleton(sk, ranks)
    raise RuntimeError("app has no adjacent differing collectives to swap")


def shift_root(sk: Skeleton) -> Skeleton:
    """Rank 1 believes a rooted collective is rooted one rank over."""
    for i, op in enumerate(sk.ranks[1]):
        if op.root_world is not None:
            return mutate_op(sk, 1, i, root_world=(op.root_world + 1) % sk.nranks)
    raise RuntimeError("app issues no rooted collectives")


def widen_dtype(sk: Skeleton) -> Skeleton:
    """Rank 0 posts the same element count of a twice-as-wide datatype —
    element counts agree, byte volumes don't."""
    for i, op in enumerate(sk.ranks[0]):
        if op.dtype is not None and op.name in (
            "Bcast", "Reduce", "Allreduce", "Scan", "Exscan",
            "Scatter", "Gather", "Allgather", "Alltoall", "Reduce_scatter",
        ):
            return mutate_op(
                sk, 0, i,
                dtype="MPI_DOUBLE" if op.dtype != "MPI_DOUBLE" else "MPI_FLOAT",
                dtype_size=op.dtype_size * 2,
            )
    raise RuntimeError("app issues no fixed-count typed collectives")


def drop_last_call(sk: Skeleton) -> Skeleton:
    """Rank 0 returns early, skipping its final collective."""
    if not sk.ranks[0]:
        raise RuntimeError("rank 0 issues no collectives")
    ranks = list(sk.ranks)
    ranks[0] = list(sk.ranks[0][:-1])
    return replace_skeleton(sk, ranks)


def swap_reduce_op(sk: Skeleton) -> Skeleton:
    """Rank 1 reduces with a different operation than its peers."""
    for i, op in enumerate(sk.ranks[1]):
        if op.op is not None:
            return mutate_op(sk, 1, i, op="MPI_MAX" if op.op != "MPI_MAX" else "MPI_SUM")
    raise RuntimeError("app issues no reductions")
