"""Communication profiler — the mpiP equivalent.

A :class:`CommProfiler` instrument records every collective call (site,
invocation, phase, call stack, communicator group, resolved root,
datatype and reduction op, arguments) and the point-to-point trace of
every rank.  The result feeds all three of FastFIT's pruning techniques
and, as the collective skeleton, the static analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..simmpi import COLLECTIVE_PARAMS, HANDLE_VECTOR_PARAMS, VECTOR_PARAMS, CollectiveCall, Instrument
from ..simmpi.validation import check_root, resolve_comm, resolve_datatype, resolve_op


@dataclass(frozen=True, slots=True)
class CallInfo:
    """One rank's record of one collective invocation in the golden run.

    ``comm_group`` is the world-rank membership of the communicator and
    ``root_world`` the world rank of the root (``None`` for non-rooted
    collectives) — the inputs of semantic-driven pruning.  The rest —
    communicator context id and comm-local rank, resolved datatype and
    reduction op, and the arguments as plain ints — is what the static
    analysis reads (:mod:`repro.analyze` calls this record ``SkeletonOp``).
    """

    rank: int
    name: str
    site: str
    invocation: int
    seq: int
    phase: str
    stack: tuple[str, ...]
    comm_group: tuple[int, ...]
    comm_context: int
    me: int
    root_world: int | None
    dtype: str | None
    dtype_size: int
    op: str | None
    op_commutative: bool | None
    args: Mapping[str, Any]

    @property
    def site_key(self) -> tuple[str, str]:
        return (self.name, self.site)

    @property
    def point_key(self) -> tuple[int, str, str, int]:
        """Join key against :class:`~repro.injection.space.InjectionPoint`."""
        return (self.rank, self.name, self.site, self.invocation)


@dataclass(frozen=True)
class P2PEvent:
    """One point-to-point operation (communication-trace element)."""

    kind: str  # "send" | "recv"
    src: int
    dst: int
    tag: int
    nbytes: int


@dataclass
class CommProfile:
    """Everything the communication profiler collected."""

    nranks: int = 0
    calls: list[CallInfo] = field(default_factory=list)
    p2p: dict[int, list[P2PEvent]] = field(default_factory=dict)

    # -- mpiP-style summaries -----------------------------------------

    def calls_by_rank(self, rank: int) -> list[CallInfo]:
        return [c for c in self.calls if c.rank == rank]

    def calls_at(self, rank: int, site_key: tuple[str, str]) -> list[CallInfo]:
        return [c for c in self.calls if c.rank == rank and c.site_key == site_key]

    def site_keys(self) -> list[tuple[str, str]]:
        """All distinct (collective, location) call sites, sorted."""
        return sorted({c.site_key for c in self.calls})

    def collective_mix(self) -> dict[str, int]:
        """Invocation counts per collective type (across all ranks)."""
        mix: dict[str, int] = {}
        for c in self.calls:
            mix[c.name] = mix.get(c.name, 0) + 1
        return mix

    def execution_key(self):
        """Sort key putting injection points in the order a fault-free
        run reaches them: each one's position in the job's global call
        order (points the profile never saw sort last)."""
        index = {(c.rank, c.name, c.site, c.invocation): i for i, c in enumerate(self.calls)}
        return lambda p: index.get((p.rank, p.collective, p.site, p.invocation), len(index))

    def n_invocations(self, rank: int, site_key: tuple[str, str]) -> int:
        return len(self.calls_at(rank, site_key))

    def collective_sequence(self, rank: int) -> tuple[tuple[str, str], ...]:
        """The ordered collective-call sequence of one rank (used to
        compare process communication behaviour)."""
        return tuple(c.site_key for c in sorted(self.calls_by_rank(rank), key=lambda c: c.seq))

    def p2p_signature(self, rank: int) -> tuple[tuple[str, int, int], ...]:
        """Direction-normalised p2p trace of one rank.

        Peers are recorded relative to the rank (offset in world size) so
        that translation-equivalent ranks compare equal.
        """
        out = []
        for ev in self.p2p.get(rank, ()):
            peer = ev.dst if ev.kind == "send" else ev.src
            out.append((ev.kind, (peer - rank) % max(self.nranks, 1), ev.nbytes))
        return tuple(out)


class CommProfiler(Instrument):
    """Instrument that builds a :class:`CommProfile` during a run."""

    def __init__(self):
        self.profile = CommProfile()
        # One shared object per distinct site, stack and argument set:
        # the profile travels pickled to every worker, and pickle
        # writes a shared object once.
        self._shared: dict = {}

    def on_collective(self, ctx, call: CollectiveCall) -> None:
        # Resolved like validation resolves them a moment later: a bad
        # handle or root in a golden run raises the same MPIError here.
        self.profile.nranks = ctx.size
        a, rank, runtime = call.args, ctx.rank, ctx.runtime
        comm = resolve_comm(runtime, a["comm"], rank=rank)
        dtype = resolve_datatype(runtime, a["datatype"], rank=rank) if "datatype" in a else None
        rop = resolve_op(runtime, a["op"], rank=rank) if "op" in a else None
        self.profile.calls.append(
            CallInfo(
                rank=call.rank,
                name=call.name,
                site=self._shared.setdefault(call.site, call.site),
                invocation=call.invocation,
                seq=call.seq,
                phase=call.phase,
                stack=self._shared.setdefault(call.stack, call.stack),
                comm_group=comm.group,
                comm_context=comm.context_id,
                me=comm.rank_of(rank),
                root_world=comm.group[check_root(a["root"], comm, rank=rank)] if "root" in a else None,
                dtype=dtype.name if dtype is not None else None,
                dtype_size=dtype.size if dtype is not None else 1,
                op=rop.name if rop is not None else None,
                op_commutative=rop.commutative if rop is not None else None,
                args=self._args(call),
            )
        )

    def _args(self, call: CollectiveCall) -> Mapping[str, Any]:
        """The call's arguments as plain ints (tuples for vectors)."""
        args = {
            param: tuple(int(x) for x in call.args[param])
            if param in VECTOR_PARAMS or param in HANDLE_VECTOR_PARAMS
            else int(call.args[param])
            for param in COLLECTIVE_PARAMS[call.name]
        }
        return self._shared.setdefault(tuple(args.items()), args)

    def on_p2p(self, ctx, kind: str, src: int, dst: int, tag: int, nbytes: int) -> None:
        self.profile.nranks = ctx.size
        self.profile.p2p.setdefault(ctx.rank, []).append(
            P2PEvent(kind, src, dst, tag, nbytes)
        )
