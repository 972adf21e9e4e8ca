"""Communication profiler — the mpiP equivalent.

A :class:`CommProfiler` instrument records every collective call (site,
invocation, phase, call stack, communicator group, resolved root) and
the point-to-point trace of every rank.  The result feeds all three of
FastFIT's pruning techniques.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simmpi import CollectiveCall, Instrument
from ..simmpi.validation import resolve_comm


@dataclass(frozen=True)
class CallInfo:
    """One collective invocation, as recorded during profiling.

    ``comm_group`` is the world-rank membership of the communicator and
    ``root_world`` the world rank of the root (``None`` for non-rooted
    collectives) — the inputs of semantic-driven pruning.
    """

    rank: int
    name: str
    site: str
    invocation: int
    seq: int
    phase: str
    stack: tuple[str, ...]
    comm_group: tuple[int, ...]
    root_world: int | None

    @property
    def site_key(self) -> tuple[str, str]:
        return (self.name, self.site)


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

    def on_collective(self, ctx, call: CollectiveCall) -> None:
        self.profile.nranks = ctx.size
        comm_group: tuple[int, ...] = ()
        root_world: int | None = None
        try:
            comm = resolve_comm(ctx.runtime, call.args["comm"], rank=ctx.rank)
            comm_group = comm.group
            if "root" in call.args:
                root_world = comm.world_rank(int(call.args["root"]))
        except Exception:  # profiling runs are clean; stay defensive
            pass
        self.profile.calls.append(
            CallInfo(
                rank=call.rank,
                name=call.name,
                site=call.site,
                invocation=call.invocation,
                seq=call.seq,
                phase=call.phase,
                stack=call.stack,
                comm_group=comm_group,
                root_world=root_world,
            )
        )

    def on_p2p(self, ctx, kind: str, src: int, dst: int, tag: int, nbytes: int) -> None:
        self.profile.nranks = ctx.size
        self.profile.p2p.setdefault(ctx.rank, []).append(
            P2PEvent(kind, src, dst, tag, nbytes)
        )
