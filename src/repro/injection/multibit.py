"""Multi-bit burst faults.

A burst flips ``width`` *adjacent* bits of one parameter — the DAVOS
"multiplicity > 1" faultload shape, modelling the spatial correlation of
real upsets (a particle strike or a stuck byte lane corrupts neighbouring
bits, not independent random ones).  The burst wraps within the
parameter's own bit extent so a late base bit still yields ``width``
flips.
"""

from __future__ import annotations

import numpy as np

from ..simmpi import CollectiveCall
from .bitflip import flip_array_element, flip_int32, flip_int64
from .injector import FaultInjector, buffer_extent_bytes
from .targets import param_kind

#: Burst width range when the spec does not pin one: 2..8 adjacent bits.
MIN_WIDTH = 2
MAX_WIDTH = 8


def draw_width(rng: np.random.Generator) -> int:
    """Uniform burst width in [MIN_WIDTH, MAX_WIDTH]."""
    return int(rng.integers(MIN_WIDTH, MAX_WIDTH + 1))


class BurstInjector(FaultInjector):
    """Flips ``width`` adjacent bits at one injection point, once per run.

    Reuses the single-bit injector's matching, record, and tracer
    plumbing; only the flip itself differs.  The record's ``bit`` is the
    base bit of the burst (the remaining flips are implied by the
    spec's width, echoed in the value transition strings).
    """

    def _width(self) -> int:
        width = self.spec.width
        return width if width > 0 else draw_width(self.rng)

    def _inject(self, ctx, call: CollectiveCall) -> None:
        param = self.spec.param
        kind = param_kind(param)
        width = self._width()
        extent = buffer_extent_bytes(ctx, call, param) if kind == "buffer" else 0
        bit = self._pick_bit(call, kind, extent)
        if bit is None:
            return

        if kind == "scalar":
            before = int(call.args[param])
            value = before
            for i in range(width):
                value = flip_int32(value, (bit + i) % 32)
            call.args[param] = value
            self._finish(
                call, kind, bit,
                before=str(before), after=f"{value} (burst x{width})",
            )
        elif kind == "handle":
            before = int(call.args[param])
            value = before
            for i in range(width):
                value = flip_int64(value, (bit + i) % 64)
            call.args[param] = value
            self._finish(
                call, kind, bit,
                before=f"{before:#x}", after=f"{value:#x} (burst x{width})",
            )
        elif kind == "vector":
            arr = np.array(call.args[param], dtype=np.int64, copy=True)
            span = arr.size * 32
            before = int(arr[bit // 32])
            for i in range(width):
                flat = (bit + i) % span
                flip_array_element(arr, flat // 32, flat % 32)
            call.args[param] = arr
            self._finish(
                call, kind, bit,
                before=f"[{bit // 32}]={before}",
                after=f"[{bit // 32}]={int(arr[bit // 32])} (burst x{width})",
            )
        elif kind == "handle_vector":
            arr = np.array([int(h) for h in call.args[param]], dtype=np.int64)
            span = arr.size * 64
            before = int(arr[bit // 64])
            for i in range(width):
                flat = (bit + i) % span
                arr[flat // 64] = flip_int64(int(arr[flat // 64]), flat % 64)
            call.args[param] = arr
            self._finish(
                call, kind, bit,
                before=f"[{bit // 64}]={before:#x}",
                after=f"[{bit // 64}]={int(arr[bit // 64]):#x} (burst x{width})",
            )
        else:  # buffer
            span = extent * 8
            addr = int(call.args[param])
            byte_addr = addr + bit // 8
            before = ctx.memory.read(byte_addr, 1)[0] if ctx.memory.in_arena(byte_addr) else None
            for i in range(width):
                ctx.memory.flip_bit(addr, (bit + i) % span)
            after = ctx.memory.read(byte_addr, 1)[0]
            self._finish(
                call, kind, bit, extent,
                before="" if before is None else f"byte {bit // 8}: {before:#04x}",
                after=f"byte {bit // 8}: {after:#04x} (burst x{width})",
            )
