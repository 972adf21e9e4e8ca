"""Wire faults: message-level and rank-level failures.

These faults live below the collective interface.  A
:class:`WireFaultInjector` *arms* at the spec's injection point exactly
like the parameter injector (same rank/site/invocation match), but the
fault itself strikes the simulated network — the
:class:`~repro.simmpi.scheduler.DeliveryTap` sees every message between
the send syscall and its delivery and can drop, duplicate, reorder, or
corrupt it — or the rank itself (crash raises the simulated MPI process
failure; stall charges the scheduler's deadline budget so detection
rides the existing ``INF_LOOP`` machinery).

The tiny delivery helpers (:func:`drop_payloads` & co.) are module-level
on purpose: the seeded ``models`` mutants (:mod:`repro.verify.mutants`)
patch them to plant plausible defects — a drop that silently retries, a
reorder that preserves FIFO, a stall shorter than the deadline — and the
model witnesses (:mod:`repro.verify.models`) must catch each one.
"""

from __future__ import annotations

import numpy as np

from ..simmpi import CollectiveCall, Instrument, MPIError
from ..simmpi.scheduler import DeliveryTap
from .injector import InjectionRecord

#: Wire fault-model names served by :class:`WireFaultInjector`.
WIRE_MODELS = ("msg_drop", "msg_dup", "msg_reorder", "msg_corrupt")
#: Rank fault-model names served by :class:`WireFaultInjector`.
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

    Inactive until the owning injector sees the spec's collective entry;
    then the next ``count`` sends from the armed rank are hit.  The
    reorder model holds the first matching payload back and releases it
    swapped behind the next send on the *same* match key (messages on
    other keys pass through undisturbed); a payload still held at job
    end was effectively dropped.
    """

    def __init__(
        self,
        model: str,
        rank: int,
        rng: np.random.Generator,
        width: int = 0,
        count: int = 1,
        on_fire=None,
    ):
        self.model = model
        self.rank = rank
        self.rng = rng
        self.width = width
        self.remaining = max(count, 1)
        self.on_fire = on_fire
        self.active = False
        self.held: tuple[tuple[int, int, int, int], bytes] | None = None

    def _fired(self, call: CollectiveCall | None, detail: str) -> None:
        self.remaining -= 1
        if self.on_fire is not None:
            self.on_fire(self, detail)

    def on_send(self, sender: int, call) -> list[bytes] | None:
        if not self.active or self.remaining <= 0 or sender != self.rank:
            return None
        if self.model == "msg_drop":
            self._fired(None, f"dropped {len(call.payload)}B message")
            return drop_payloads(call.payload)
        if self.model == "msg_dup":
            self._fired(None, f"duplicated {len(call.payload)}B message")
            return dup_payloads(call.payload, 1)
        if self.model == "msg_corrupt":
            corrupted = corrupt_payload(call.payload, self.rng, self.width)
            self._fired(None, f"corrupted {len(call.payload)}B message")
            return [corrupted]
        if self.model == "msg_reorder":
            key = (call.context_id, call.src, call.dst, call.tag)
            if self.held is None:
                self.held = (key, call.payload)
                return []  # held back, awaiting the overtaking send
            held_key, held_payload = self.held
            if key != held_key:
                return None  # different stream: deliver normally
            self.held = None
            self._fired(None, "reordered two same-key messages")
            return reorder_release(held_payload, call.payload)
        return None  # pragma: no cover - defensive


class _WireTap(DeliveryTap):
    """Delivery tap delegating to one armed wire fault."""

    def __init__(self, arm: Arm):
        self.arm = arm
        self.pending_steps = 0

    def on_send(self, sender: int, call) -> list[bytes] | None:
        return self.arm.on_send(sender, call)


class WireFaultInjector(Instrument):
    """Arms one wire or rank fault at one injection point.

    The instrument watches collective entries exactly like
    :class:`~repro.injection.injector.FaultInjector`; at the match it
    either activates the delivery-layer arm (wire models), raises the
    simulated process failure (``rank_crash``), or deposits stall steps
    on the tap (``rank_stall``).  ``record`` is populated when the fault
    actually strikes, so an armed wire fault whose rank never sends
    counts as uninjected — the same semantics as a zero-length buffer
    flip.
    """

    def __init__(self, spec, rng: np.random.Generator, tracer=None):
        self.spec = spec
        self.rng = rng
        self.tracer = tracer
        self.record: InjectionRecord | None = None
        self._armed = False
        model = spec.model
        if model in WIRE_MODELS:
            self.arm: Arm | None = Arm(
                model,
                spec.point.rank,
                rng,
                width=getattr(spec, "width", 0),
                count=getattr(spec, "count", 1),
                on_fire=self._on_fire,
            )
            self.tap: DeliveryTap = _WireTap(self.arm)
        elif model in RANK_MODELS:
            self.arm = None
            self.tap = DeliveryTap()
        else:  # pragma: no cover - defensive
            raise ValueError(f"not a wire/rank fault model: {model!r}")

    @property
    def fired(self) -> bool:
        return self.record is not None

    def _on_fire(self, arm: Arm, detail: str) -> None:
        if self.record is None:
            self.record = InjectionRecord(
                self.spec.param,
                self.spec.model,
                -1,
                collective=self._call_name,
                site=self._call_site,
                invocation=self._call_invocation,
                after=detail,
            )
            if self.tracer is not None:
                self.tracer.emit(
                    "fault_fired", self.spec.point.rank,
                    param=self.spec.param, param_kind=self.spec.model, bit=-1,
                    collective=self._call_name, site=self._call_site,
                    invocation=self._call_invocation, skipped=False,
                    before="", after=detail,
                )

    def on_collective(self, ctx, call: CollectiveCall) -> None:
        if self._armed:
            return
        p = self.spec.point
        if (
            call.rank != p.rank
            or call.name != p.collective
            or call.site != p.site
            or call.invocation != p.invocation
        ):
            return
        self._armed = True
        self._call_name = call.name
        self._call_site = call.site
        self._call_invocation = call.invocation
        model = self.spec.model
        if model == "rank_crash":
            self._on_fire(None, f"rank {call.rank} failed entering {call.name}")
            raise MPIError(
                "MPI_ERR_PROC_FAILED",
                f"rank {call.rank} failed entering {call.name}",
                rank=call.rank,
            )
        if model == "rank_stall":
            weight = resolve_stall_weight(
                getattr(self.spec, "weight", 0), ctx.runtime.step_budget
            )
            self.tap.pending_steps += weight
            self._on_fire(None, f"rank {call.rank} stalled for {weight} steps")
            return
        # Wire models: the fault strikes at the delivery layer from the
        # next send onward.
        self.arm.active = True
