"""Prefix snapshots of a live simulated job + deterministic fast-forward.

A :class:`SimSnapshot` captures everything needed to re-materialise a job
*parked* at an injection site after its fault-free prefix: per-rank arena
bytes (``bytes(memoryview(...))`` copies), the scheduler's mailbox and
ready/waiting queues, the communicator handle table, and every fiber's
*position* — how many times it has been advanced, plus the exact inbound
payloads it consumed along the way.

Generator frames cannot be pickled or copied, so restore is a
**deterministic fast-forward** (:func:`fast_forward`): build a fresh
runtime and re-drive each fiber, independently, to its recorded advance
count, feeding the recorded inbound payloads at every receive.  No
scheduler runs and no messages move — collective data-movement is elided
because the recorded payloads *are* the data that moved.  Because fibers
are pure functions of their resume values (apps are deterministic and
wall-clock-free by construction), the rebuilt state is value-identical to
the original; the rebuild is verified byte-for-byte against the snapshot
arenas before it is trusted, and any mismatch raises
:class:`FastForwardDiverged` so callers fall back to a full from-scratch
replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..injection.space import InjectionPoint
from ..simmpi.context import Context
from ..simmpi.fiber import Fiber, FiberState, Progress, Recv
from ..simmpi.runtime import SimMPI
from ..simmpi.scheduler import Scheduler

#: Sentinel marking "no advance in flight" in a :class:`FiberLog`.
_IDLE = object()


class FastForwardDiverged(RuntimeError):
    """Fast-forward reconstruction did not reproduce the snapshot state.

    Raised when a fiber finishes early, exhausts (or leaves unconsumed)
    its inbound payload log, or the rebuilt arenas/handle tables differ
    from the captured bytes — the app violated the determinism contract,
    or the snapshot is stale.  Callers fall back to full replay.
    """


class FiberLog:
    """Per-fiber advance log recorded by :func:`instrument_fibers`.

    ``yields`` counts completed ``gen.send`` calls, ``inbound`` holds the
    non-``None`` resume values (received payloads) in consumption order,
    and ``weight`` accumulates each yielded syscall's step-budget cost so
    a snapshot can reconstruct the scheduler's event counter exactly.
    ``pending`` is the resume value of an advance currently executing
    (the park instrument fires *mid*-advance), ``_IDLE`` otherwise.
    """

    __slots__ = ("yields", "inbound", "weight", "pending")

    def __init__(self) -> None:
        self.yields = 0
        self.inbound: list[bytes] = []
        self.weight = 0
        self.pending: Any = _IDLE

    @property
    def in_flight(self) -> bool:
        return self.pending is not _IDLE


def instrument_fibers(fibers: list[Fiber]) -> dict[int, FiberLog]:
    """Wrap every fiber's cached ``send`` with advance/payload logging.

    The scheduler advances fibers through the ``fiber.send`` attribute
    (a cached ``gen.send``), so wrapping that attribute observes every
    advance without touching the scheduler hot path for uninstrumented
    runs.  Returns the logs keyed by rank.
    """
    logs: dict[int, FiberLog] = {}
    for fiber in fibers:
        log = FiberLog()
        logs[fiber.rank] = log

        def send(value, _real=fiber.gen.send, _log=log):
            _log.pending = value
            _log.yields += 1
            if value is not None:
                _log.inbound.append(value)
            call = _real(value)  # StopIteration/errors propagate
            _log.weight += call.weight if isinstance(call, Progress) else 1
            _log.pending = _IDLE
            return call

        fiber.send = send
    return logs


@dataclass(frozen=True)
class FiberSnap:
    """One fiber's position and scheduler-visible state at park time."""

    rank: int
    #: Completed advances (the parked fiber's in-flight advance excluded).
    yields: int
    #: ``FiberState.value`` at park time.
    state: str
    #: Pending ``resume_value`` for a READY fiber whose matched payload
    #: was delivered but not yet consumed (``None`` otherwise).
    pending_resume: bytes | None
    #: Human-readable block reason (deadlock-report fidelity).
    wait_reason: str = ""


@dataclass(frozen=True)
class SimSnapshot:
    """Copyable state of a job parked at an injection site.

    Everything is plain bytes/ints/tuples — no live generators, views,
    or numpy arrays — so a snapshot is immutable, hashable-free data
    that can be retained in an LRU cache and restored any number of
    times.
    """

    point: InjectionPoint
    nranks: int
    #: Per-rank arena contents up to the bump-allocator break — bytes
    #: beyond ``brk`` were never handed out, so copying (and later
    #: verifying) them would only bloat the cache.
    arenas: tuple[bytes, ...]
    #: Per-rank bump-allocator break and allocation count.
    brks: tuple[int, ...]
    seg_counts: tuple[int, ...]
    #: Unconsumed messages: match key -> payload FIFO.
    mailbox: dict[tuple, tuple[bytes, ...]]
    #: Blocked receivers: match key -> rank.
    waiting: dict[tuple, int]
    #: Ready-queue ranks in order; the parked fiber is at the front so
    #: the restored run re-executes the parked advance first.
    ready_ranks: tuple[int, ...]
    #: Scheduler event counter at park time.
    steps: int
    fibers: tuple[FiberSnap, ...]
    #: Per-rank consumed inbound payloads, in order (the parked fiber's
    #: in-flight value is held out in ``target_pending`` instead).
    inbound: tuple[tuple[bytes, ...], ...]
    #: Resume value of the parked advance (re-fed on restore).
    target_pending: bytes | None
    #: Communicator handle table (divergence check for the rebuild).
    comm_map: dict = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Retained-size estimate: arenas + captured payload bytes."""
        n = sum(len(a) for a in self.arenas)
        for queue in self.mailbox.values():
            n += sum(len(p) for p in queue)
        for payloads in self.inbound:
            n += sum(len(p) for p in payloads)
        if self.target_pending is not None:
            n += len(self.target_pending)
        return n


def take_snapshot(
    point: InjectionPoint,
    scheduler: Scheduler,
    contexts: list[Context],
    fibers: list[Fiber],
    logs: dict[int, FiberLog],
) -> SimSnapshot:
    """Capture the parked job.  Must be called from inside the park
    instrument, i.e. while the target fiber is mid-advance in the
    collective entry of ``point`` — the in-flight advance is rolled back
    to "about to execute" so the restored run re-enters (and re-parks at)
    the same collective.
    """
    target = fibers[point.rank]
    tlog = logs[target.rank]
    if not tlog.in_flight:
        raise RuntimeError("take_snapshot must be called while the target fiber is parked")

    inbound: list[tuple[bytes, ...]] = []
    snaps: list[FiberSnap] = []
    for fiber in fibers:
        log = logs[fiber.rank]
        values = list(log.inbound)
        yields = log.yields
        if fiber is target:
            # The parked advance is in flight: count it as not-yet-run
            # and hold its resume value out of the log so the restored
            # schedule re-executes it first.
            yields -= 1
            if log.pending is not None:
                values.pop()
        inbound.append(tuple(values))
        snaps.append(
            FiberSnap(
                rank=fiber.rank,
                yields=yields,
                state=fiber.state.value,
                pending_resume=fiber.resume_value,
                wait_reason=fiber.wait_reason,
            )
        )

    comm_map = dict(scheduler.comm_lookup()) if scheduler.comm_lookup is not None else {}
    return SimSnapshot(
        point=point,
        nranks=len(fibers),
        arenas=tuple(
            bytes(memoryview(ctx.memory.raw)[: ctx.memory._brk - ctx.memory.base])
            for ctx in contexts
        ),
        brks=tuple(ctx.memory._brk for ctx in contexts),
        seg_counts=tuple(len(ctx.memory.segments) for ctx in contexts),
        mailbox={key: tuple(queue) for key, queue in scheduler.mailbox.items()},
        waiting={key: fiber.rank for key, fiber in scheduler.waiting.items()},
        ready_ranks=(target.rank,) + tuple(f.rank for f in scheduler._ready),
        steps=sum(log.weight for log in logs.values()),
        fibers=tuple(snaps),
        inbound=tuple(inbound),
        target_pending=tlog.pending,
        comm_map=comm_map,
    )


@dataclass
class RestoredJob:
    """A fresh runtime fast-forwarded to a snapshot's park point.

    ``scheduler.run()`` resumes exactly where the captured run was: the
    first advance re-enters the parked collective, so an attached park
    instrument fires again immediately.
    """

    sim: SimMPI
    contexts: list[Context]
    fibers: list[Fiber]
    scheduler: Scheduler
    logs: dict[int, FiberLog]


def _redrive(fiber: Fiber, snap: FiberSnap, payloads: tuple[bytes, ...]) -> None:
    """Re-drive one fiber to its recorded position, feeding recorded
    inbound payloads at every receive.  Raises FastForwardDiverged when
    the replay does not line up with the log."""
    inbound = deque(payloads)
    value: bytes | None = None
    for i in range(snap.yields):
        try:
            call = fiber.send(value)
        except StopIteration as stop:
            if i != snap.yields - 1 or snap.state != FiberState.DONE.value:
                raise FastForwardDiverged(
                    f"rank {fiber.rank}: fiber finished at advance {i + 1}, "
                    f"expected {snap.yields} advances"
                ) from None
            fiber.state = FiberState.DONE
            fiber.result = stop.value
            break
        if i == snap.yields - 1:
            # The payload for the *next* advance (if any) is not ours to
            # consume: it is either the snapshot's pending resume value
            # or the parked advance's held-out value.
            break
        if isinstance(call, Recv):
            if not inbound:
                raise FastForwardDiverged(
                    f"rank {fiber.rank}: inbound log exhausted at advance {i + 1}"
                )
            value = inbound.popleft()
        else:
            value = None
    if inbound:
        raise FastForwardDiverged(
            f"rank {fiber.rank}: {len(inbound)} recorded payloads left unconsumed"
        )


def fast_forward(
    app_fn,
    snapshot: SimSnapshot,
    *,
    step_budget: int,
    algorithms: dict[str, str] | None = None,
    alloc_cap: int | None = None,
    instruments=(),
) -> RestoredJob:
    """Restore a snapshot into a fresh runtime by deterministic replay.

    The rebuild is verified against the snapshot (arena bytes, allocator
    break, allocation counts, fiber terminal states, communicator handle
    table) before the scheduler is primed; any mismatch raises
    :class:`FastForwardDiverged` and the partially-built job is
    discarded.
    """
    sim = SimMPI(
        snapshot.nranks, step_budget=step_budget, algorithms=algorithms, alloc_cap=alloc_cap
    )
    contexts, fibers, scheduler = sim.prepare(app_fn, instruments)
    logs = instrument_fibers(fibers)

    for fiber in fibers:
        _redrive(fiber, snapshot.fibers[fiber.rank], snapshot.inbound[fiber.rank])

    # -- restore scheduler-visible fiber state + queues ----------------
    for fiber in fibers:
        snap = snapshot.fibers[fiber.rank]
        if (fiber.state is FiberState.DONE) != (snap.state == FiberState.DONE.value):
            raise FastForwardDiverged(
                f"rank {fiber.rank}: terminal state differs after fast-forward"
            )
        fiber.state = FiberState(snap.state)
        fiber.resume_value = snap.pending_resume
        fiber.wait_reason = snap.wait_reason
    target = fibers[snapshot.point.rank]
    target.resume_value = snapshot.target_pending

    scheduler.mailbox = {key: deque(queue) for key, queue in snapshot.mailbox.items()}
    scheduler.waiting = {key: fibers[rank] for key, rank in snapshot.waiting.items()}
    scheduler.prime([fibers[rank] for rank in snapshot.ready_ranks], steps=snapshot.steps)
    return RestoredJob(sim=sim, contexts=contexts, fibers=fibers, scheduler=scheduler, logs=logs)


def verify_restored(job: RestoredJob, snapshot: SimSnapshot) -> None:
    """Byte-exact comparison of a restored job against its snapshot.

    Must be called when the restored job has *re-reached the park* — the
    snapshot was captured mid-advance, inside the parked collective
    entry, so only at that same instant are the two states comparable
    (comparing right after :func:`fast_forward` would flag the parked
    advance's own partial heap writes as divergence).  Any mismatch
    raises :class:`FastForwardDiverged`.
    """
    for rank, ctx in enumerate(job.contexts):
        mem = ctx.memory
        if mem._brk != snapshot.brks[rank] or len(mem.segments) != snapshot.seg_counts[rank]:
            raise FastForwardDiverged(
                f"rank {rank}: allocator state differs after fast-forward "
                f"(brk {mem._brk:#x} vs {snapshot.brks[rank]:#x}, "
                f"{len(mem.segments)} vs {snapshot.seg_counts[rank]} segments)"
            )
        if bytes(memoryview(mem.raw)[: len(snapshot.arenas[rank])]) != snapshot.arenas[rank]:
            raise FastForwardDiverged(f"rank {rank}: arena bytes differ after fast-forward")
    if dict(job.sim.comm_factory.context_map()) != snapshot.comm_map:
        raise FastForwardDiverged("communicator handle table differs after fast-forward")
