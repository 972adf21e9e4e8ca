"""Per-rank simulated memory.

Each rank owns a flat *arena* — a contiguous span of a synthetic address
space backed by one numpy byte array.  Applications allocate typed
buffers out of the arena with a bump allocator; the MPI layer addresses
memory only through ``(addr, nbytes)`` pairs.

The failure semantics are the ones that matter for fault injection:

* any access that leaves the arena raises
  :class:`~repro.simmpi.errors.SegmentationFault` (the dominant outcome
  for bit-flipped ``count`` parameters in the paper's Fig. 9);
* an access that stays inside the arena but crosses into a *different*
  allocation silently corrupts it — heap-smash semantics, which is how a
  modestly corrupted count turns into ``WRONG_ANS`` several collectives
  later;
* with an *allocation cap* armed (``alloc_cap``), any single allocation
  request larger than the cap raises the same simulated segfault — the
  resource guard that keeps a bit-flipped size that reached application
  allocation code from turning into a host-process ``MemoryError``.

Allocation layout is deterministic, so golden and injected runs see the
same addresses.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .datatypes import Datatype
from .errors import SegmentationFault

#: Base of the simulated data arena (distinct from the MPI-object heap).
ARENA_BASE = 0x0000_5555_0000_0000

#: Default arena size in bytes.  Big enough for every workload in the
#: suite, small enough that huge corrupted counts always fall outside.
DEFAULT_ARENA_SIZE = 1 << 22

_ALIGN = 16

#: Arenas are anonymous *private* maps: zero pages until touched, never
#: memset, returned to the kernel when the ``Memory`` dies.  ``mmap``'s
#: default is ``MAP_SHARED``, under which a forked test's writes would
#: land in the parent's parked arena (see DESIGN "Snapshot & fork").
#: Platforms without the flags have no ``os.fork`` either, so the default
#: map is correct there.
_MAP_FLAGS = (
    {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS} if hasattr(mmap, "MAP_PRIVATE") else {}
)


@dataclass(frozen=True)
class Segment:
    """One allocation inside an arena."""

    addr: int
    nbytes: int
    label: str

    @property
    def end(self) -> int:
        return self.addr + self.nbytes


class ArrayRef:
    """A typed view of an allocation.

    ``view`` is the numpy array applications compute on; ``addr`` is what
    they pass to MPI calls.  Mutating ``view`` mutates arena memory
    directly (it is a numpy view, not a copy).
    """

    def __init__(self, memory: "Memory", segment: Segment, dtype: Datatype):
        self.memory = memory
        self.segment = segment
        self.dtype = dtype

    @property
    def addr(self) -> int:
        return self.segment.addr

    @property
    def count(self) -> int:
        return self.segment.nbytes // self.dtype.size

    @property
    def view(self) -> np.ndarray:
        off = self.segment.addr - self.memory.base
        raw = self.memory.raw[off : off + self.segment.nbytes]
        return raw.view(self.dtype.np_dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayRef({self.segment.label!r}, addr={self.addr:#x}, count={self.count}, {self.dtype.name})"


class Memory:
    """A rank's simulated address space.

    Parameters
    ----------
    rank:
        Owning rank (for error messages).
    size:
        Arena size in bytes.
    base:
        Arena base address; all ranks use the same base, as with
        identically mapped SPMD processes.
    tracer:
        Optional event tracer; allocations emit ``alloc`` events.
    sanitizer:
        Optional :class:`~repro.simmpi.sanitize.Sanitizer`.  When set,
        accesses that cross allocation boundaries (the heap-smash path)
        and out-of-arena accesses are recorded as violations; the
        permissive fault semantics themselves are unchanged.
    alloc_cap:
        Optional cap (bytes) on a *single* allocation request.  A
        request above the cap raises
        :class:`~repro.simmpi.errors.SegmentationFault` — the simulated
        analogue of a failed ``malloc`` on a corrupted size — instead of
        the host-level :class:`MemoryError` of arena exhaustion.
        ``None`` (the default) disables the guard.
    """

    def __init__(
        self,
        rank: int,
        size: int = DEFAULT_ARENA_SIZE,
        base: int = ARENA_BASE,
        tracer=None,
        alloc_cap: int | None = None,
        sanitizer=None,
    ):
        self.rank = rank
        self.base = base
        self.size = size
        self.tracer = tracer
        self.sanitizer = sanitizer
        if alloc_cap is not None and alloc_cap < 1:
            raise ValueError(f"alloc_cap must be >= 1 bytes, got {alloc_cap}")
        self.alloc_cap = alloc_cap
        self.raw = np.frombuffer(mmap.mmap(-1, size, **_MAP_FLAGS), dtype=np.uint8)
        self.segments: list[Segment] = []
        self._brk = base

    # -- allocation --------------------------------------------------

    def alloc(self, nbytes: int, label: str = "") -> Segment:
        """Bump-allocate ``nbytes`` (16-byte aligned)."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if self.alloc_cap is not None and nbytes > self.alloc_cap:
            # A corrupted size walked into allocation code: fail it on
            # the deterministic simulated-segfault path rather than the
            # host heap.
            raise SegmentationFault(self._brk, nbytes, rank=self.rank)
        addr = self._brk
        end = addr + nbytes
        if end > self.base + self.size:
            raise MemoryError(
                f"arena exhausted on rank {self.rank}: need {nbytes} bytes at {addr:#x}"
            )
        pad = (-end) % _ALIGN
        self._brk = end + pad
        seg = Segment(addr, nbytes, label)
        self.segments.append(seg)
        if self.tracer is not None:
            self.tracer.emit("alloc", self.rank, addr=addr, nbytes=nbytes, label=label)
        return seg

    def alloc_array(self, count: int, dtype: Datatype, label: str = "") -> ArrayRef:
        """Allocate a typed buffer of ``count`` elements."""
        seg = self.alloc(count * dtype.size, label=label)
        return ArrayRef(self, seg, dtype)

    # -- raw access (the MPI layer's view) ---------------------------

    def _check(self, addr: int, nbytes: int) -> int:
        if nbytes < 0:
            if self.sanitizer is not None:
                self.sanitizer.record("oob_access", self.rank, addr=addr, nbytes=nbytes)
            raise SegmentationFault(addr, nbytes, rank=self.rank)
        off = addr - self.base
        if off < 0 or off + nbytes > self.size:
            if self.sanitizer is not None:
                self.sanitizer.record("oob_access", self.rank, addr=addr, nbytes=nbytes)
            raise SegmentationFault(addr, nbytes, rank=self.rank)
        if self.sanitizer is not None and nbytes > 0:
            seg = self.segment_of(addr)
            if seg is not None and addr + nbytes > seg.end:
                # In-arena but crossing into a neighbouring allocation:
                # the access succeeds (heap-smash semantics) — record it.
                self.sanitizer.record(
                    "buffer_overlap", self.rank,
                    addr=addr, nbytes=nbytes,
                    segment=seg.label or hex(seg.addr), seg_end=seg.end,
                )
        return off

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` raw bytes; segfaults if outside the arena."""
        off = self._check(addr, nbytes)
        return self.raw[off : off + nbytes].tobytes()

    def write(self, addr: int, data: bytes) -> None:
        """Write raw bytes; segfaults if outside the arena.

        Writes that overrun the owning segment but stay inside the arena
        succeed and corrupt neighbouring allocations — by design.
        """
        off = self._check(addr, len(data))
        self.raw[off : off + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def in_arena(self, addr: int, nbytes: int = 1) -> bool:
        off = addr - self.base
        return 0 <= off and off + nbytes <= self.size and nbytes >= 0

    def segment_of(self, addr: int) -> Segment | None:
        """The allocation containing ``addr``, if any."""
        for seg in self.segments:
            if seg.addr <= addr < seg.end:
                return seg
        return None

    def flip_bit(self, addr: int, bit: int) -> None:
        """Flip one bit of arena memory (used by the fault injector)."""
        off = self._check(addr + bit // 8, 1)
        self.raw[off] ^= np.uint8(1 << (bit % 8))
