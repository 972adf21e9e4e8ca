"""Wire faults: message-level and rank-level failures.

These faults live below the collective interface.  A
:class:`~repro.injection.injector.FaultInjector` arms a wire fault at
the spec's injection point exactly like a parameter fault (same
rank/site/invocation match), but the fault itself strikes the simulated
network: the :class:`Tap` sees every message between the send syscall
and its delivery and its :class:`Arm` can drop, duplicate, reorder, or
corrupt it.  A rank fault strikes the rank itself through
:func:`strike_rank`: a crash raises the simulated MPI process failure,
a stall charges the scheduler's deadline budget so detection rides the
existing ``INF_LOOP`` machinery.  Scenario tasks
(:mod:`repro.injection.scenario`) strike through the same arm, tap and
helper.

The tiny delivery helpers (:func:`drop_payloads` & co.) are module-level
on purpose, and every strike looks them up when it fires: the seeded
``models`` mutants (:mod:`repro.verify.mutants`) patch them to plant
plausible defects — a drop that silently retries, a reorder that
preserves FIFO, a stall shorter than the deadline — and the model
witnesses (:mod:`repro.verify.models`) must catch each one, on the
point path and the scenario path alike.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..simmpi import CollectiveCall, MPIError
from ..simmpi.scheduler import DeliveryTap

#: Wire fault-model names: struck by an :class:`Arm` on the delivery tap.
WIRE_MODELS = ("msg_drop", "msg_dup", "msg_reorder", "msg_corrupt")
#: Rank fault-model names: struck by :func:`strike_rank`.
RANK_MODELS = ("rank_crash", "rank_stall")


# -- delivery helpers (seeded-mutant patch targets) ---------------------

def drop_payloads(payload: bytes) -> list[bytes]:
    """A dropped message delivers nothing."""
    return []


def dup_payloads(payload: bytes, copies: int) -> list[bytes]:
    """A duplicated message delivers the original plus ``copies`` clones."""
    return [payload] * (copies + 1)


def reorder_release(held: bytes, new: bytes) -> list[bytes]:
    """Release a held-back message *after* the one that overtook it."""
    return [new, held]


def corrupt_payload(payload: bytes, rng: np.random.Generator, width: int) -> bytes:
    """Flip ``width`` adjacent bits of a payload (1 if unspecified)."""
    if not payload:
        return payload
    width = width if width > 0 else 1
    span = len(payload) * 8
    base = int(rng.integers(0, span))
    buf = bytearray(payload)
    for i in range(width):
        flat = (base + i) % span
        buf[flat // 8] ^= 1 << (flat % 8)
    return bytes(buf)


def resolve_stall_weight(explicit: int, step_budget: int) -> int:
    """Steps a stalled rank charges to the deadline budget.

    With no explicit weight the stall is *unbounded* — it charges past
    the whole budget, so the supervisor kills the run exactly as it
    would a livelock (``INF_LOOP``).  An explicit weight models a
    transient stall the run survives.
    """
    return explicit if explicit > 0 else step_budget + 1


# -- the armed fault ----------------------------------------------------

class Arm:
    """One armed wire fault acting on sends from one world rank.

    Inactive until its injector sees the fault's collective entry; then
    the next ``count`` sends from the armed rank are hit, each reported
    to ``on_fire`` with its detail string.  The reorder model holds the
    first matching payload back (reported at the hold, so a payload
    still held at job end — effectively dropped — is recorded too) and
    releases it swapped behind the next send on the *same* match key
    (messages on other keys pass through undisturbed).
    """

    def __init__(
        self,
        model: str,
        rank: int,
        rng: np.random.Generator,
        width: int,
        count: int,
        on_fire: Callable[[str], None],
    ):
        self.model = model
        self.rank = rank
        self.rng = rng
        self.width = width
        self.remaining = max(count, 1)
        self.on_fire = on_fire
        self.active = False
        self.held: tuple[tuple[int, int, int, int], bytes] | None = None

    def _fired(self, detail: str) -> None:
        self.remaining -= 1
        self.on_fire(detail)

    def on_send(self, sender: int, call) -> list[bytes] | None:
        if not self.active or self.remaining <= 0 or sender != self.rank:
            return None
        if self.model == "msg_drop":
            self._fired(f"dropped {len(call.payload)}B message")
            return drop_payloads(call.payload)
        if self.model == "msg_dup":
            self._fired(f"duplicated {len(call.payload)}B message")
            return dup_payloads(call.payload, 1)
        if self.model == "msg_corrupt":
            corrupted = corrupt_payload(call.payload, self.rng, self.width)
            self._fired(f"corrupted {len(call.payload)}B message")
            return [corrupted]
        if self.model == "msg_reorder":
            key = (call.context_id, call.src, call.dst, call.tag)
            if self.held is None:
                self.held = (key, call.payload)
                # The hold is the strike: record it, but leave the count
                # to the release.
                self.on_fire(f"held back {len(call.payload)}B message")
                return []  # held back, awaiting the overtaking send
            held_key, held_payload = self.held
            if key != held_key:
                return None  # different stream: deliver normally
            self.held = None
            self._fired("reordered two same-key messages")
            return reorder_release(held_payload, call.payload)
        return None  # pragma: no cover - defensive


class Tap(DeliveryTap):
    """The delivery tap of one injector: its armed wire faults plus the
    stall steps its rank faults deposit.

    The first arm acting on a message wins, so overlapping scenario
    wire tasks on the same rank compose in timeline order.
    """

    def __init__(self) -> None:
        self.arms: list[Arm] = []
        self.pending_steps = 0

    def on_send(self, sender: int, call) -> list[bytes] | None:
        for arm in self.arms:
            payloads = arm.on_send(sender, call)
            if payloads is not None:
                return payloads
        return None


def strike_rank(
    model: str,
    weight: int,
    ctx,
    call: CollectiveCall,
    tap: Tap,
    on_fire: Callable[[str], None],
) -> None:
    """Strike the rank entering ``call`` with a rank fault.

    ``rank_stall`` deposits its steps on ``tap``; ``rank_crash`` raises
    the simulated process failure.  Either way ``on_fire`` gets the
    strike's detail first, so the fault is recorded before the job
    aborts.
    """
    if model == "rank_stall":
        steps = resolve_stall_weight(weight, ctx.runtime.step_budget)
        tap.pending_steps += steps
        on_fire(f"rank {call.rank} stalled for {steps} steps")
        return
    detail = f"rank {call.rank} failed entering {call.name}"
    on_fire(detail)
    raise MPIError("MPI_ERR_PROC_FAILED", detail, rank=call.rank)
