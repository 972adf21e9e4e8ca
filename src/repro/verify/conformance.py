"""Differential conformance: fuzz every collective against the reference.

For each collective the harness draws randomized cases — rank counts
mixing powers of two and odd sizes (including single-rank communicators),
every basic datatype, zero and ragged counts, adversarial displacement
layouts, all roots, and every reduction op legal for the drawn datatype,
including two *non-commutative* test ops — runs the real simulator
drivers under **every algorithm variant**, and diffs the resulting
buffer images against :mod:`repro.verify.reference`.

Every fuzz run also executes with the sanitizer armed, so the
conformance sweep doubles as a sanitizer soak: a clean draw that trips
``unmatched_message`` or ``short_recv`` is reported as a failure even
when the data comes out right.

Values are drawn as small integers cast into the target datatype, so
every reduction is exact in every dtype (float sums of small integers
round nowhere) and comparisons are **bit-exact** — no tolerance to hide
a real divergence behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..simmpi.ops import ReduceOp, make_op_space
from ..simmpi.runtime import run_app
from . import reference as ref

#: Non-commutative (but associative) test ops.  ``TAKELEFT`` folds to the
#: first operand in canonical order, ``TAKERIGHT`` to the last — any
#: driver that reorders operands returns the wrong rank's contribution.
NONCOMMUTATIVE_OPS: tuple[ReduceOp, ...] = (
    ReduceOp("FF_TAKELEFT", lambda a, b: a, commutative=False),
    ReduceOp("FF_TAKERIGHT", lambda a, b: b, commutative=False),
)

_OP_SPACE, _OP_HANDLES = make_op_space(extra_ops=NONCOMMUTATIVE_OPS)
OP_BY_NAME: dict[str, ReduceOp] = {
    name: _OP_SPACE.resolve(handle) for name, handle in _OP_HANDLES.items()
}

#: Basic datatypes the fuzzer draws from (name → numpy dtype).
_DTYPES: dict[str, np.dtype] = {
    "MPI_CHAR": np.dtype("i1"),
    "MPI_INT": np.dtype("i4"),
    "MPI_LONG": np.dtype("i8"),
    "MPI_FLOAT": np.dtype("f4"),
    "MPI_DOUBLE": np.dtype("f8"),
    "MPI_UNSIGNED": np.dtype("u4"),
    "MPI_UNSIGNED_LONG": np.dtype("u8"),
    "MPI_COMPLEX": np.dtype("c8"),
    "MPI_DOUBLE_COMPLEX": np.dtype("c16"),
    "MPI_BYTE": np.dtype("u1"),
}

#: Small per-run arena: fuzz buffers are tiny and a fresh default-size
#: arena per case would dominate the harness runtime.
_ARENA = 1 << 16


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class CaseFailure:
    """One divergence between a driver and the reference model."""

    collective: str
    algorithm: str
    case: int
    detail: str

    def describe(self) -> str:
        return f"{self.collective}[{self.algorithm}] case {self.case}: {self.detail}"


@dataclass
class CollectiveReport:
    """Conformance outcome for one collective."""

    name: str
    cases: int = 0
    checks: int = 0
    failures: list[CaseFailure] = field(default_factory=list)
    #: Failures beyond the per-collective retention cap.
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.suppressed


@dataclass
class ConformanceReport:
    """Aggregate result of one conformance sweep."""

    seed: int
    draws_per_collective: int
    reports: dict[str, CollectiveReport] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports.values())

    @property
    def total_cases(self) -> int:
        return sum(r.cases for r in self.reports.values())

    @property
    def total_checks(self) -> int:
        return sum(r.checks for r in self.reports.values())

    @property
    def failures(self) -> list[CaseFailure]:
        return [f for r in self.reports.values() for f in r.failures]

    def describe(self) -> str:
        lines = [f"conformance seed={self.seed} draws={self.draws_per_collective}"]
        for name, rep in self.reports.items():
            status = "ok" if rep.ok else f"{len(rep.failures) + rep.suppressed} FAILURES"
            lines.append(f"  {name:<16} {rep.cases:>4} cases {rep.checks:>6} checks  {status}")
        for f in self.failures[:20]:
            lines.append(f"  !! {f.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "draws_per_collective": self.draws_per_collective,
            "ok": self.ok,
            "total_cases": self.total_cases,
            "total_checks": self.total_checks,
            "collectives": {
                name: {
                    "cases": r.cases,
                    "checks": r.checks,
                    "ok": r.ok,
                    "failures": [f.describe() for f in r.failures],
                    "suppressed": r.suppressed,
                }
                for name, r in self.reports.items()
            },
        }


# -- drawing helpers --------------------------------------------------------


def _draw_n(rng: np.random.Generator) -> int:
    """Communicator size: 1..8, mixing powers of two and odd sizes."""
    return int(rng.integers(1, 9))


def _draw_dtype(rng: np.random.Generator) -> tuple[str, np.dtype]:
    names = list(_DTYPES)
    name = names[int(rng.integers(0, len(names)))]
    return name, _DTYPES[name]


def _draw_op(rng: np.random.Generator, np_dtype: np.dtype) -> ReduceOp:
    names = ["MPI_SUM", "MPI_PROD", "FF_TAKELEFT", "FF_TAKERIGHT"]
    if np_dtype.kind != "c":
        names += ["MPI_MAX", "MPI_MIN", "MPI_LAND", "MPI_LOR"]
    if np_dtype.kind in "iu":
        names += ["MPI_BAND", "MPI_BOR", "MPI_BXOR"]
    return OP_BY_NAME[names[int(rng.integers(0, len(names)))]]


def _draw_values(rng: np.random.Generator, count: int, np_dtype: np.dtype) -> np.ndarray:
    """Small-integer payloads: exact in every dtype, any fold order."""
    if np_dtype.kind == "c":
        re_part = rng.integers(-4, 5, size=count)
        im_part = rng.integers(-4, 5, size=count)
        return (re_part + 1j * im_part).astype(np_dtype)
    if np_dtype.kind == "u":
        return rng.integers(0, 9, size=count).astype(np_dtype)
    return rng.integers(-4, 5, size=count).astype(np_dtype)


def _sentinel(count: int, np_dtype: np.dtype) -> np.ndarray:
    """Receive-buffer fill that no drawn payload can equal."""
    base = np.arange(count) % 23 + 101
    if np_dtype.kind == "c":
        return (base + 7j).astype(np_dtype)
    return base.astype(np_dtype)


def _draw_layout(
    rng: np.random.Generator, counts: Sequence[int]
) -> tuple[list[int], int]:
    """Non-overlapping displacements in a random block order with random
    gaps; returns ``(displs, buffer_size)`` in elements."""
    displs = [0] * len(counts)
    pos = int(rng.integers(0, 3))
    for i in rng.permutation(len(counts)):
        displs[int(i)] = pos
        pos += int(counts[int(i)]) + int(rng.integers(0, 3))
    return displs, pos + int(rng.integers(0, 4))


def _op_attr(op: ReduceOp) -> str:
    return op.name.removeprefix("MPI_")


def _dt_attr(name: str) -> str:
    return name.removeprefix("MPI_")


def _mismatch(key: str, rank: int, expected: np.ndarray, got: np.ndarray) -> str:
    exp_s = np.array2string(expected, threshold=24)
    got_s = np.array2string(got, threshold=24)
    return f"rank {rank} {key}: expected {exp_s}, got {got_s}"


# -- per-collective case generators ----------------------------------------
#
# Each generator draws one randomized case and returns a ``_Case``: the
# rank count, an app generator-function closing over the drawn images,
# the expected final images per rank (dict key → array, matching the
# app's return dict), and the (label, algorithms) variants to execute.


@dataclass
class _Case:
    nranks: int
    app: Callable
    expected: list[dict[str, np.ndarray]]
    variants: tuple[tuple[str, dict[str, str] | None], ...] = (("default", None),)


def _case_bcast(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    count = int(rng.integers(0, 13))
    root = int(rng.integers(0, n))
    imgs = [_draw_values(rng, count, np_dt) for _ in range(n)]

    def app(ctx):
        buf = ctx.alloc(count, getattr(ctx, _dt_attr(dt_name)), "buf")
        buf.view[:] = imgs[ctx.rank]
        yield from ctx.Bcast(buf.addr, count, getattr(ctx, _dt_attr(dt_name)), root, ctx.WORLD)
        return {"buf": np.array(buf.view, copy=True)}

    expected = [{"buf": img} for img in ref.ref_bcast(imgs, root)]
    return _Case(
        n, app, expected,
        variants=(("binomial", {"bcast": "binomial"}), ("chain", {"bcast": "chain"})),
    )


def _reduction_case(rng: np.random.Generator, which: str) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    op = _draw_op(rng, np_dt)
    count = int(rng.integers(0, 13))
    root = int(rng.integers(0, n))
    sends = [_draw_values(rng, count, np_dt) for _ in range(n)]
    recvs = [_sentinel(count, np_dt) for _ in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        sbuf = ctx.alloc(count, dt, "send")
        rbuf = ctx.alloc(count, dt, "recv")
        sbuf.view[:] = sends[ctx.rank]
        rbuf.view[:] = recvs[ctx.rank]
        oph = getattr(ctx, _op_attr(op))
        if which == "Reduce":
            yield from ctx.Reduce(sbuf.addr, rbuf.addr, count, dt, oph, root, ctx.WORLD)
        elif which == "Allreduce":
            yield from ctx.Allreduce(sbuf.addr, rbuf.addr, count, dt, oph, ctx.WORLD)
        elif which == "Scan":
            yield from ctx.Scan(sbuf.addr, rbuf.addr, count, dt, oph, ctx.WORLD)
        else:
            yield from ctx.Exscan(sbuf.addr, rbuf.addr, count, dt, oph, ctx.WORLD)
        return {
            "send": np.array(sbuf.view, copy=True),
            "recv": np.array(rbuf.view, copy=True),
        }

    if which == "Reduce":
        out = ref.ref_reduce(sends, recvs, op, np_dt, root)
    elif which == "Allreduce":
        out = ref.ref_allreduce(sends, recvs, op, np_dt)
    elif which == "Scan":
        out = ref.ref_scan(sends, recvs, op, np_dt)
    else:
        out = ref.ref_exscan(sends, recvs, op, np_dt)
    expected = [{"send": sends[r], "recv": out[r]} for r in range(n)]

    variants: tuple[tuple[str, dict[str, str] | None], ...] = (("default", None),)
    if which == "Allreduce":
        vlist = [("reduce_bcast", {"allreduce": "reduce_bcast"})]
        if n & (n - 1) == 0:
            vlist.append(("recursive_doubling", {"allreduce": "recursive_doubling"}))
        variants = tuple(vlist)
    return _Case(n, app, expected, variants=variants)


def _case_reduce(rng):
    return _reduction_case(rng, "Reduce")


def _case_allreduce(rng):
    return _reduction_case(rng, "Allreduce")


def _case_scan(rng):
    return _reduction_case(rng, "Scan")


def _case_exscan(rng):
    return _reduction_case(rng, "Exscan")


def _case_reduce_scatter(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    op = _draw_op(rng, np_dt)
    recvcount = int(rng.integers(0, 7))
    total = n * recvcount
    sends = [_draw_values(rng, total, np_dt) for _ in range(n)]
    recvs = [_sentinel(recvcount, np_dt) for _ in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        sbuf = ctx.alloc(total, dt, "send")
        rbuf = ctx.alloc(recvcount, dt, "recv")
        sbuf.view[:] = sends[ctx.rank]
        rbuf.view[:] = recvs[ctx.rank]
        yield from ctx.Reduce_scatter(
            sbuf.addr, rbuf.addr, recvcount, dt, getattr(ctx, _op_attr(op)), ctx.WORLD
        )
        return {
            "send": np.array(sbuf.view, copy=True),
            "recv": np.array(rbuf.view, copy=True),
        }

    out = ref.ref_reduce_scatter_block(sends, recvs, op, np_dt, recvcount)
    expected = [{"send": sends[r], "recv": out[r]} for r in range(n)]
    return _Case(n, app, expected)


def _case_scatter(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    count = int(rng.integers(0, 13))
    root = int(rng.integers(0, n))
    rootsend = _draw_values(rng, n * count, np_dt)
    recvs = [_sentinel(count, np_dt) for _ in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        sbuf = ctx.alloc(n * count, dt, "send")
        rbuf = ctx.alloc(count, dt, "recv")
        if ctx.rank == root:
            sbuf.view[:] = rootsend
        rbuf.view[:] = recvs[ctx.rank]
        yield from ctx.Scatter(sbuf.addr, count, rbuf.addr, count, dt, root, ctx.WORLD)
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_scatter(rootsend, recvs, count, root)
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_gather(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    count = int(rng.integers(0, 13))
    root = int(rng.integers(0, n))
    sends = [_draw_values(rng, count, np_dt) for _ in range(n)]
    recvs = [_sentinel(n * count, np_dt) for _ in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        sbuf = ctx.alloc(count, dt, "send")
        rbuf = ctx.alloc(n * count, dt, "recv")
        sbuf.view[:] = sends[ctx.rank]
        rbuf.view[:] = recvs[ctx.rank]
        yield from ctx.Gather(sbuf.addr, count, rbuf.addr, count, dt, root, ctx.WORLD)
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_gather(sends, recvs, count, root)
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_allgather(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    count = int(rng.integers(0, 13))
    sends = [_draw_values(rng, count, np_dt) for _ in range(n)]
    recvs = [_sentinel(n * count, np_dt) for _ in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        sbuf = ctx.alloc(count, dt, "send")
        rbuf = ctx.alloc(n * count, dt, "recv")
        sbuf.view[:] = sends[ctx.rank]
        rbuf.view[:] = recvs[ctx.rank]
        yield from ctx.Allgather(sbuf.addr, count, rbuf.addr, count, dt, ctx.WORLD)
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_allgather(sends, recvs, count)
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_alltoall(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    count = int(rng.integers(0, 13))
    sends = [_draw_values(rng, n * count, np_dt) for _ in range(n)]
    recvs = [_sentinel(n * count, np_dt) for _ in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        sbuf = ctx.alloc(n * count, dt, "send")
        rbuf = ctx.alloc(n * count, dt, "recv")
        sbuf.view[:] = sends[ctx.rank]
        rbuf.view[:] = recvs[ctx.rank]
        yield from ctx.Alltoall(sbuf.addr, count, rbuf.addr, count, dt, ctx.WORLD)
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_alltoall(sends, recvs, count)
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_gatherv(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    root = int(rng.integers(0, n))
    counts = [int(rng.integers(0, 7)) for _ in range(n)]
    displs, rsize = _draw_layout(rng, counts)
    sends = [_draw_values(rng, counts[r], np_dt) for r in range(n)]
    recvs = [_sentinel(rsize, np_dt) for _ in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        me = ctx.rank
        sbuf = ctx.alloc(counts[me], dt, "send")
        rbuf = ctx.alloc(rsize, dt, "recv")
        sbuf.view[:] = sends[me]
        rbuf.view[:] = recvs[me]
        yield from ctx.Gatherv(
            sbuf.addr, counts[me], rbuf.addr, counts, displs, dt, root, ctx.WORLD
        )
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_gatherv(sends, recvs, counts, displs, root)
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_scatterv(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    root = int(rng.integers(0, n))
    counts = [int(rng.integers(0, 7)) for _ in range(n)]
    displs, ssize = _draw_layout(rng, counts)
    rootsend = _draw_values(rng, ssize, np_dt)
    recvs = [_sentinel(counts[r], np_dt) for r in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        me = ctx.rank
        sbuf = ctx.alloc(ssize, dt, "send")
        rbuf = ctx.alloc(counts[me], dt, "recv")
        if me == root:
            sbuf.view[:] = rootsend
        rbuf.view[:] = recvs[me]
        yield from ctx.Scatterv(
            sbuf.addr, counts, displs, rbuf.addr, counts[me], dt, root, ctx.WORLD
        )
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_scatterv(rootsend, recvs, counts, displs, root)
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_allgatherv(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    counts = [int(rng.integers(0, 7)) for _ in range(n)]
    displs, rsize = _draw_layout(rng, counts)
    sends = [_draw_values(rng, counts[r], np_dt) for r in range(n)]
    recvs = [_sentinel(rsize, np_dt) for _ in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        me = ctx.rank
        sbuf = ctx.alloc(counts[me], dt, "send")
        rbuf = ctx.alloc(rsize, dt, "recv")
        sbuf.view[:] = sends[me]
        rbuf.view[:] = recvs[me]
        yield from ctx.Allgatherv(
            sbuf.addr, counts[me], rbuf.addr, counts, displs, dt, ctx.WORLD
        )
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_allgatherv(sends, recvs, counts, displs)
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_alltoallv(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_name, np_dt = _draw_dtype(rng)
    # counts[src][dst]: src sends counts[src][dst] elements to dst.
    counts = [[int(rng.integers(0, 6)) for _ in range(n)] for _ in range(n)]
    sdispls, ssizes, rdispls, rsizes = [], [], [], []
    for r in range(n):
        sd, ss = _draw_layout(rng, counts[r])
        sdispls.append(sd)
        ssizes.append(ss)
        rcounts_r = [counts[src][r] for src in range(n)]
        rd, rs = _draw_layout(rng, rcounts_r)
        rdispls.append(rd)
        rsizes.append(rs)
    recvcounts = [[counts[src][dst] for src in range(n)] for dst in range(n)]
    sends = [_draw_values(rng, ssizes[r], np_dt) for r in range(n)]
    recvs = [_sentinel(rsizes[r], np_dt) for r in range(n)]

    def app(ctx):
        dt = getattr(ctx, _dt_attr(dt_name))
        me = ctx.rank
        sbuf = ctx.alloc(ssizes[me], dt, "send")
        rbuf = ctx.alloc(rsizes[me], dt, "recv")
        sbuf.view[:] = sends[me]
        rbuf.view[:] = recvs[me]
        yield from ctx.Alltoallv(
            sbuf.addr, counts[me], sdispls[me],
            rbuf.addr, recvcounts[me], rdispls[me], dt, ctx.WORLD,
        )
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_alltoallv(sends, recvs, counts, sdispls, recvcounts, rdispls)
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_alltoallw(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    dt_names = list(_DTYPES)
    # types[src][dst]: the one datatype used for the (src → dst) pair.
    types = [
        [dt_names[int(rng.integers(0, len(dt_names)))] for _ in range(n)]
        for _ in range(n)
    ]
    counts = [[int(rng.integers(0, 5)) for _ in range(n)] for _ in range(n)]
    sizes = [[_DTYPES[types[s][d]].itemsize for d in range(n)] for s in range(n)]

    # Byte-granular displacement layouts over byte buffers.
    sdispls, ssizes, rdispls, rsizes = [], [], [], []
    for r in range(n):
        sbytes = [counts[r][d] * sizes[r][d] for d in range(n)]
        sd, ss = _draw_layout(rng, sbytes)
        sdispls.append(sd)
        ssizes.append(ss)
        rbytes = [counts[src][r] * sizes[src][r] for src in range(n)]
        rd, rs = _draw_layout(rng, rbytes)
        rdispls.append(rd)
        rsizes.append(rs)
    recvcounts = [[counts[src][dst] for src in range(n)] for dst in range(n)]
    recvsizes = [[sizes[src][dst] for src in range(n)] for dst in range(n)]
    recvtypes = [[types[src][dst] for src in range(n)] for dst in range(n)]
    u1 = np.dtype("u1")
    sends = [rng.integers(0, 256, size=ssizes[r]).astype(u1) for r in range(n)]
    recvs = [_sentinel(rsizes[r], u1) for r in range(n)]

    def app(ctx):
        me = ctx.rank
        sbuf = ctx.alloc(ssizes[me], ctx.BYTE, "send")
        rbuf = ctx.alloc(rsizes[me], ctx.BYTE, "recv")
        sbuf.view[:] = sends[me]
        rbuf.view[:] = recvs[me]
        stypes = [getattr(ctx, _dt_attr(name)) for name in types[me]]
        rtypes = [getattr(ctx, _dt_attr(name)) for name in recvtypes[me]]
        yield from ctx.Alltoallw(
            sbuf.addr, counts[me], sdispls[me], stypes,
            rbuf.addr, recvcounts[me], rdispls[me], rtypes, ctx.WORLD,
        )
        return {"recv": np.array(rbuf.view, copy=True)}

    out = ref.ref_alltoallw(
        sends, recvs, counts, sdispls, sizes, recvcounts, rdispls, recvsizes
    )
    return _Case(n, app, [{"recv": out[r]} for r in range(n)])


def _case_barrier(rng: np.random.Generator) -> _Case:
    n = _draw_n(rng)
    rounds = int(rng.integers(1, 4))

    def app(ctx):
        for _ in range(rounds):
            yield from ctx.Barrier(ctx.WORLD)
        return {"done": np.array([rounds])}

    return _Case(n, app, [{"done": np.array([rounds])} for _ in range(n)])


_CASES: dict[str, Callable[[np.random.Generator], _Case]] = {
    "Bcast": _case_bcast,
    "Reduce": _case_reduce,
    "Allreduce": _case_allreduce,
    "Scatter": _case_scatter,
    "Gather": _case_gather,
    "Allgather": _case_allgather,
    "Alltoall": _case_alltoall,
    "Alltoallv": _case_alltoallv,
    "Alltoallw": _case_alltoallw,
    "Gatherv": _case_gatherv,
    "Scatterv": _case_scatterv,
    "Allgatherv": _case_allgatherv,
    "Scan": _case_scan,
    "Exscan": _case_exscan,
    "Reduce_scatter": _case_reduce_scatter,
    "Barrier": _case_barrier,
}

#: Every collective the fuzzer covers (all of the simulator's 16).
FUZZED_COLLECTIVES: tuple[str, ...] = tuple(_CASES)

#: Retain at most this many failure records per collective.
_MAX_FAILURES = 10


def run_conformance(
    seed: int = 0,
    draws_per_collective: int = 200,
    collectives: Sequence[str] | None = None,
    progress: Callable[[str, CollectiveReport], None] | None = None,
) -> ConformanceReport:
    """Fuzz every collective (or the named subset) against the reference.

    Each draw derives its RNG from ``SeedSequence(seed, spawn_key=
    (collective_index, draw))``, so any failing case can be re-run in
    isolation.
    """
    names = list(collectives) if collectives is not None else list(FUZZED_COLLECTIVES)
    for name in names:
        if name not in _CASES:
            raise ValueError(
                f"unknown collective {name!r}; choices: {', '.join(FUZZED_COLLECTIVES)}"
            )

    report = ConformanceReport(seed=seed, draws_per_collective=draws_per_collective)
    for name in names:
        ci = FUZZED_COLLECTIVES.index(name)
        rep = CollectiveReport(name=name)
        for draw in range(draws_per_collective):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(ci, draw))
            )
            case = _CASES[name](rng)
            for label, algorithms in case.variants:
                rep.cases += 1
                _run_one(name, label, draw, case, algorithms, rep)
        report.reports[name] = rep
        if progress is not None:
            progress(name, rep)
    return report


def _record_failure(rep: CollectiveReport, failure: CaseFailure) -> None:
    if len(rep.failures) < _MAX_FAILURES:
        rep.failures.append(failure)
    else:
        rep.suppressed += 1


def _run_one(
    name: str,
    label: str,
    draw: int,
    case: _Case,
    algorithms: dict[str, str] | None,
    rep: CollectiveReport,
) -> None:
    try:
        result = run_app(
            case.app,
            case.nranks,
            algorithms=algorithms,
            arena_size=_ARENA,
            sanitize=True,
            extra_ops=NONCOMMUTATIVE_OPS,
        )
    except Exception as exc:  # any abort is a conformance failure
        rep.checks += 1
        _record_failure(
            rep, CaseFailure(name, label, draw, f"{type(exc).__name__}: {exc}")
        )
        return

    if result.sanitizer is not None and result.sanitizer.violations:
        _record_failure(
            rep,
            CaseFailure(
                name, label, draw,
                "sanitizer: " + "; ".join(
                    v.describe() for v in result.sanitizer.violations[:3]
                ),
            ),
        )
    for rank, (exp, act) in enumerate(zip(case.expected, result.results)):
        for key, earr in exp.items():
            rep.checks += 1
            aarr = act[key]
            if not np.array_equal(earr, aarr):
                _record_failure(
                    rep,
                    CaseFailure(name, label, draw, _mismatch(key, rank, earr, aarr)),
                )
