"""Pointer-like handle space for MPI objects.

In Open MPI (the style of implementation deployed on Titan's Cray stack),
``MPI_Datatype``, ``MPI_Op``, and ``MPI_Comm`` are *pointers* to heap
objects.  FastFIT's observation that bit flips in these parameters most
often end in ``SEG_FAULT`` (Fig. 9 of the paper) follows directly from
that representation: a flipped pointer usually lands in unmapped memory.

This module reproduces that behaviour.  Every MPI object is registered at
a synthetic 48-bit "address"; resolving a handle distinguishes three
cases:

* the handle is exactly a registered object's base address → the object;
* the handle falls *inside* a registered object's extent (a low-bit flip)
  → the library reads a corrupted object, notices a bad magic field, and
  raises :class:`~repro.simmpi.errors.MPIError`;
* anything else → dereferencing unmapped memory, i.e.
  :class:`~repro.simmpi.errors.SegmentationFault`.

Handles are spaced ``OBJECT_EXTENT`` apart so that *some* pairs of live
objects differ by a single bit — exactly the rare aliasing that lets a
flipped ``MPI_Op`` silently become a different valid op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generic, Mapping, TypeVar

from .errors import MPIError, SegmentationFault

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import SimMPI

T = TypeVar("T")

#: Base of the synthetic heap region where MPI objects live.  Chosen to
#: look like a 64-bit userspace heap pointer.
HANDLE_BASE = 0x7F4A_0000_0000

#: Size in bytes of each simulated MPI object.  A power of two, so
#: consecutive objects differ in a single address bit.
OBJECT_EXTENT = 0x40

#: Number of bits in a handle value (pointers on the target platform).
HANDLE_BITS = 64


class HandleSpace(Generic[T]):
    """A registry mapping pointer-like handles to MPI objects.

    Each runtime owns separate spaces for datatypes, ops, and
    communicators (real MPI objects of different classes live in
    different allocator pools).
    """

    def __init__(self, name: str, base: int = HANDLE_BASE):
        self.name = name
        self.base = base
        self._objects: dict[int, T] = {}
        self._next = base

    def register(self, obj: T) -> int:
        """Register ``obj`` and return its handle (base address)."""
        handle = self._next
        self._next += OBJECT_EXTENT
        self._objects[handle] = obj
        return handle

    def handles(self) -> list[int]:
        """All live handles, in registration order."""
        return sorted(self._objects)

    def objects(self) -> list[T]:
        return [self._objects[h] for h in self.handles()]

    def resolve(self, handle: int, *, rank: int | None = None) -> T:
        """Dereference ``handle``; raise like a real MPI library would.

        See the module docstring for the three outcomes.
        """
        obj = self._objects.get(handle)
        if obj is not None:
            return obj
        # Inside a live object but not at its base: the magic/refcount
        # fields read garbage -> the library reports an invalid handle.
        offset = handle - self.base
        if 0 <= offset < self._next - self.base and handle % OBJECT_EXTENT != 0:
            aligned = handle - (handle % OBJECT_EXTENT)
            if aligned in self._objects:
                raise MPIError(
                    f"MPI_ERR_{self.name.upper()}",
                    f"corrupted {self.name} handle {handle:#x}",
                    rank=rank,
                )
        raise SegmentationFault(handle, OBJECT_EXTENT, rank=rank)

    def contains(self, handle: int) -> bool:
        return handle in self._objects

    def __len__(self) -> int:
        return len(self._objects)


@dataclass(frozen=True, slots=True)
class HandleTable:
    """Static snapshot of one pointer-like handle space.

    ``resolve_static`` mirrors :meth:`HandleSpace.resolve` without
    executing anything: the three outcomes (live object /
    corrupted-but-alive / unmapped) are decidable from the layout alone.
    """

    kind: str
    base: int
    top: int
    descr: Mapping[int, str]
    groups: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    #: Datatype table only: handle -> element size in bytes.
    sizes: Mapping[int, int] = field(default_factory=dict)

    @property
    def live(self) -> tuple[int, ...]:
        return tuple(sorted(self.descr))

    def resolve_static(self, handle: int) -> tuple[str, int | None]:
        """Classify ``handle`` as ``("live", h)``, ``("corrupt", base)``,
        or ``("segfault", None)`` — exactly like the runtime would."""
        if handle in self.descr:
            return ("live", handle)
        offset = handle - self.base
        if 0 <= offset < self.top - self.base and handle % OBJECT_EXTENT != 0:
            aligned = handle - (handle % OBJECT_EXTENT)
            if aligned in self.descr:
                return ("corrupt", aligned)
        return ("segfault", None)


def _snapshot(space: HandleSpace, descr: dict[int, str],
              groups: dict[int, tuple[int, ...]] | None = None,
              sizes: dict[int, int] | None = None) -> HandleTable:
    live = space.handles()
    top = (max(live) + OBJECT_EXTENT) if live else space.base
    return HandleTable(space.name, space.base, top, descr, groups or {}, sizes or {})


def snapshot_tables(runtime: "SimMPI") -> tuple[HandleTable, HandleTable, HandleTable]:
    """Static handle tables (datatype / op / comm) of a runtime."""
    dt = _snapshot(
        runtime.type_space,
        {h: runtime.type_space.resolve(h).name for h in runtime.type_space.handles()},
        sizes={h: runtime.type_space.resolve(h).size for h in runtime.type_space.handles()},
    )
    op = _snapshot(
        runtime.op_space,
        {h: runtime.op_space.resolve(h).name for h in runtime.op_space.handles()},
    )
    comm_space = runtime.comm_factory.space
    comm = _snapshot(
        comm_space,
        {h: comm_space.resolve(h).name for h in comm_space.handles()},
        {h: comm_space.resolve(h).group for h in comm_space.handles()},
    )
    return dt, op, comm
