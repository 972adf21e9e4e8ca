"""Static fault-outcome pre-classification (pass 3).

For one ``InjectionPoint × test`` the campaign draws a parameter and a
bit from a per-test ``SeedSequence`` and runs the whole simulator to
find out what the flip does.  A large slice of that fault space is
*provably determined* before execution: the flipped value, the clean
call arguments (from the skeleton), the arena layout, and the handle
tables decide the outcome on the faulty rank's first few deterministic
actions, before any genuine cross-rank interaction.

:class:`PreClassifier` replays exactly the campaign's randomness
(the test's spec and RNG stream from
:func:`repro.injection.models.draw_task`, then the injector's bit draw
— see ``repro.injection.injector``) and applies
a rule table derived from the collective drivers:

* ``null-fault`` — the injector provably skips (empty count vector,
  zero-extent buffer): the run is fault-free ⇒ SUCCESS.
* ``negative-count`` — a count flipped negative fails ``check_count`` /
  ``check_counts_array`` on the faulty rank's first step ⇒ MPI_ERR.
* ``root-out-of-range`` — a flipped root outside ``[0, comm.size)``
  fails ``check_root`` ⇒ MPI_ERR.
* ``unmapped-handle`` / ``corrupted-handle`` / ``alias-nonmember-comm``
  — handle flips classified by a static mirror of
  ``HandleSpace.resolve`` (⇒ SEG_FAULT / MPI_ERR / MPI_ERR).
* ``oob-eager-read`` / ``oob-block-read`` / ``oob-strided-write`` /
  ``oob-displaced-read`` / ``oob-displaced-write`` — a count or
  displacement flip that drives the driver's first buffer access out of
  the arena ⇒ SEG_FAULT (the arena bounds are static).
* ``recv-truncate`` / ``oversize-truncate`` — ``check_truncate`` raises
  iff a payload exceeds the posted receive size; with exactly one
  corrupted rank both sides of the comparison are statically known
  ⇒ MPI_ERR.
* ``ignored-param`` / ``truncate-only-param`` — the algorithm provably
  never reads the parameter on this rank (e.g. ``recvcount`` away from
  a Gather root), or only compares it against a smaller payload that is
  then written verbatim ⇒ masked SUCCESS.

Soundness contract: every rule assumes the *clean* run is the skeleton
run (deterministic apps — enforced by :mod:`repro.analyze.lint`) and
that the skeleton passed :func:`repro.analyze.matching.check_skeleton`
(cross-rank count/dtype equalities several truncate rules rely on).
:class:`PreClassifier` refuses to classify when the op is unknown, and
returns ``None`` — "not provable, run it" — everywhere a rule would
need dynamic information.  Every prediction is cross-validated against
the live simulator by :mod:`repro.analyze.crossval` and the analyze CI
job; a single mismatch there is a bug in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..injection.bitflip import flip_int32, flip_int64
from ..injection.models import draw_task
from ..injection.outcome import Outcome
from ..injection.space import InjectionPoint
from ..injection.targets import param_kind
from ..simmpi.collectives.binomial import bcast_children, bcast_parent, vrank
from .skeleton import HandleTable, Skeleton, SkeletonOp

#: Every rule name a Prediction can carry, for reporting and tests.
PRECLASSIFY_RULES = (
    "null-fault",
    "negative-count",
    "root-out-of-range",
    "unmapped-handle",
    "corrupted-handle",
    "alias-nonmember-comm",
    "oob-eager-read",
    "oob-block-read",
    "oob-strided-write",
    "oob-displaced-read",
    "oob-displaced-write",
    "recv-truncate",
    "oversize-truncate",
    "ignored-param",
    "truncate-only-param",
)

_COUNT_PARAMS = frozenset({"count", "sendcount", "recvcount"})


class StaticPruneError(RuntimeError):
    """Static pruning was requested for an application whose skeleton the
    matching checker rejects.

    The truncate/volume rules assume cross-rank agreement on byte
    volumes; without a clean :func:`repro.analyze.check_skeleton` report
    those proofs are unsound, so the campaign refuses to prune."""


@dataclass(frozen=True, slots=True)
class Prediction:
    """One provably-determined test outcome."""

    outcome: Outcome
    rule: str
    param: str
    kind: str
    bit: int
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.outcome.value} [{self.rule}] {self.param} bit={self.bit}"


class PreClassifier:
    """Replays the campaign's per-test randomness and classifies the
    provably-determined slice of the fault space."""

    def __init__(
        self, skeleton: Skeleton, *, seed: int, param_policy: str = "buffer"
    ) -> None:
        self.skeleton = skeleton
        self.seed = seed
        self.param_policy = param_policy
        self._index = skeleton.op_index()

    # -- campaign-facing entry points -----------------------------------

    def predict(
        self, point: InjectionPoint, point_index: int, test_index: int
    ) -> Prediction | None:
        """The campaign's test ``(point_index, test_index)``, classified.

        ``None`` means "not provable — run it dynamically".
        """
        op = self._index.get(
            (point.rank, point.collective, point.site, point.invocation)
        )
        if op is None:
            return None
        spec, rng = draw_task(point, self.seed, point_index, test_index, policy=self.param_policy)
        return self.classify(op, spec.param, rng)

    def classify(
        self,
        op: SkeletonOp,
        param: str,
        rng: np.random.Generator | None = None,
        bit: int | None = None,
    ) -> Prediction | None:
        """Classify one ``(op, param)`` fault; draw the bit like the
        injector would when ``bit`` is not given."""
        kind = param_kind(param)
        if kind == "scalar":
            if bit is None:
                bit = int(rng.integers(0, 32))
            clean = int(op.args[param])
            return self._scalar(op, param, clean, flip_int32(clean, bit), bit)
        if kind == "handle":
            if bit is None:
                bit = int(rng.integers(0, 64))
            return self._handle(op, param, flip_int64(int(op.args[param]), bit), bit)
        if kind == "vector":
            vec = op.args[param]
            if len(vec) == 0:
                return Prediction(
                    Outcome.SUCCESS, "null-fault", param, kind, -1,
                    "empty vector: the injector skips, the run is clean",
                )
            if bit is None:
                bit = int(rng.integers(0, len(vec) * 32))
            elem = bit // 32
            clean = int(vec[elem])
            return self._vector(op, param, elem, clean, flip_int32(clean, bit % 32), bit)
        if kind == "handle_vector":
            vec = op.args[param]
            if len(vec) == 0:
                return Prediction(
                    Outcome.SUCCESS, "null-fault", param, kind, -1,
                    "empty type vector: the injector skips, the run is clean",
                )
            if bit is None:
                bit = int(rng.integers(0, len(vec) * 64))
            flipped = flip_int64(int(vec[bit // 64]), bit % 64)
            return self._resolve_static(
                self.skeleton.datatypes, op, param, "handle_vector", flipped, bit,
                allow_alias=True,
            )
        # buffer: a data flip never changes control flow by itself —
        # only the zero-extent case (injector skips) is provable.
        extent = self._buffer_extent(op, param)
        if extent <= 0:
            return Prediction(
                Outcome.SUCCESS, "null-fault", param, kind, -1,
                "zero-extent buffer: the injector skips, the run is clean",
            )
        return None

    # -- rule groups ----------------------------------------------------

    def _oob(self, addr: int, nbytes: int) -> bool:
        """Mirror of ``Memory._check``: would this access segfault?"""
        off = addr - self.skeleton.arena_base
        return off < 0 or off + nbytes > self.skeleton.arena_size

    def _p(
        self, outcome: Outcome, rule: str, param: str, kind: str, bit: int, detail: str
    ) -> Prediction:
        return Prediction(outcome, rule, param, kind, bit, detail)

    def _scalar(
        self, op: SkeletonOp, param: str, clean: int, flipped: int, bit: int
    ) -> Prediction | None:
        name = op.name
        n = len(op.comm_group)
        es = op.dtype_size or 1
        a = op.args
        if param == "root":
            if not 0 <= flipped < n:
                return self._p(
                    Outcome.MPI_ERR, "root-out-of-range", param, "scalar", bit,
                    f"root {clean} -> {flipped} outside [0, {n})",
                )
            return None  # a live wrong root mis-coordinates: dynamic
        if param not in _COUNT_PARAMS:  # pragma: no cover - exhaustive
            return None
        if flipped < 0:
            return self._p(
                Outcome.MPI_ERR, "negative-count", param, "scalar", bit,
                f"{param} {clean} -> {flipped} fails check_count",
            )
        at_root = op.root_world is not None and op.rank == op.root_world

        if name in ("Reduce", "Allreduce", "Scan", "Exscan") and param == "count":
            if self._oob(int(a["sendbuf"]), flipped * es):
                return self._p(
                    Outcome.SEG_FAULT, "oob-eager-read", param, "scalar", bit,
                    f"first action reads sendbuf[{flipped}×{es}B] out of the arena",
                )
            if name in ("Scan", "Exscan"):
                # Linear chain: rank 0 only sends, others recv the clean
                # prefix first (scan.py).
                if op.me > 0 and flipped < clean:
                    return self._p(
                        Outcome.MPI_ERR, "recv-truncate", param, "scalar", bit,
                        f"clean {clean}-element prefix exceeds posted {flipped}",
                    )
                if op.me == 0 and n > 1 and flipped > clean:
                    return self._p(
                        Outcome.MPI_ERR, "oversize-truncate", param, "scalar", bit,
                        f"rank {op.comm_group[1]} posts {clean} elements, got {flipped}",
                    )
            return None
        if name == "Bcast" and param == "count":
            return self._bcast_count(op, clean, flipped, bit)
        if name == "Reduce_scatter" and param == "recvcount":
            # reduce_scatter_block's first reduce eagerly reads block 0.
            if self._oob(int(a["sendbuf"]), flipped * es):
                return self._p(
                    Outcome.SEG_FAULT, "oob-eager-read", param, "scalar", bit,
                    f"block-0 reduce reads sendbuf[{flipped}×{es}B] out of the arena",
                )
            return None
        if name in ("Gather", "Gatherv", "Allgatherv") and param == "sendcount":
            # Every rank reads its full send buffer (gather.py,
            # vvariants.py); the receiving side posts the clean size.
            if self._oob(int(a["sendbuf"]), flipped * es):
                return self._p(
                    Outcome.SEG_FAULT, "oob-eager-read", param, "scalar", bit,
                    f"reads sendbuf[{flipped}×{es}B] out of the arena",
                )
            if flipped > clean:
                return self._p(
                    Outcome.MPI_ERR, "oversize-truncate", param, "scalar", bit,
                    f"receiver posts {clean} elements, contribution is {flipped}",
                )
            return None
        if name == "Gather" and param == "recvcount":
            if not at_root:
                return self._p(
                    Outcome.SUCCESS, "ignored-param", param, "scalar", bit,
                    "recvcount is significant only at the Gather root",
                )
            if flipped < clean:
                return self._p(
                    Outcome.MPI_ERR, "recv-truncate", param, "scalar", bit,
                    f"block 0 carries {clean} elements, root posts {flipped}",
                )
            recvaddr = int(a["recvbuf"])
            for r in range(n):
                if self._oob(recvaddr + r * flipped * es, clean * es):
                    return self._p(
                        Outcome.SEG_FAULT, "oob-strided-write", param, "scalar", bit,
                        f"block {r} write at stride {flipped}×{es}B leaves the arena",
                    )
            return None
        if name == "Scatter" and param == "recvcount":
            # recvcount is only ever compared against the (clean) block
            # and the payload is written verbatim (scatter.py).
            if flipped < clean:
                return self._p(
                    Outcome.MPI_ERR, "recv-truncate", param, "scalar", bit,
                    f"clean {clean}-element block exceeds posted {flipped}",
                )
            return self._p(
                Outcome.SUCCESS, "truncate-only-param", param, "scalar", bit,
                "oversized recvcount only relaxes the truncate bound",
            )
        if name == "Scatterv" and param == "recvcount":
            if flipped < clean:
                return self._p(
                    Outcome.MPI_ERR, "recv-truncate", param, "scalar", bit,
                    f"clean {clean}-element block exceeds posted {flipped}",
                )
            return self._p(
                Outcome.SUCCESS, "truncate-only-param", param, "scalar", bit,
                "oversized recvcount only relaxes the truncate bound",
            )
        if name == "Scatter" and param == "sendcount":
            if not at_root:
                return self._p(
                    Outcome.SUCCESS, "ignored-param", param, "scalar", bit,
                    "sendcount is significant only at the Scatter root",
                )
            return self._scatter_sendcount(op, clean, flipped, bit)
        return None

    def _bcast_count(
        self, op: SkeletonOp, clean: int, flipped: int, bit: int
    ) -> Prediction | None:
        """Bcast trees are computed per rank from static parameters, so
        the faulty rank's parent/children set is static too."""
        n = len(op.comm_group)
        es = op.dtype_size or 1
        root = int(op.args["root"]) % n if n else 0
        v = vrank(op.me, root, n)
        if self.skeleton.algorithms.get("bcast", "binomial") == "chain":
            has_parent = v > 0
            has_children = v + 1 < n
        else:
            parent, _ = bcast_parent(v, n)
            has_parent = parent is not None
            has_children = bool(bcast_children(v, n))
        addr = int(op.args["buffer"])
        if has_parent and flipped < clean:
            return self._p(
                Outcome.MPI_ERR, "recv-truncate", "count", "scalar", bit,
                f"clean {clean}-element payload exceeds posted {flipped}",
            )
        if not has_children:
            # Leaf (or singleton root): after the guarded recv the count
            # is never used again — recv path identical to the clean run.
            return self._p(
                Outcome.SUCCESS,
                "truncate-only-param" if has_parent else "ignored-param",
                "count", "scalar", bit,
                "no children in the broadcast tree: count is never read",
            )
        if self._oob(addr, flipped * es):
            return self._p(
                Outcome.SEG_FAULT, "oob-eager-read", "count", "scalar", bit,
                f"forwarding read of {flipped}×{es}B leaves the arena",
            )
        if flipped > clean:
            return self._p(
                Outcome.MPI_ERR, "oversize-truncate", "count", "scalar", bit,
                f"children post {clean} elements, forwarded payload is {flipped}",
            )
        return None  # root shrinking the payload: propagates, dynamic

    def _scatter_sendcount(
        self, op: SkeletonOp, clean: int, flipped: int, bit: int
    ) -> Prediction | None:
        """Scatter root: ``n`` strided block reads race the ``r == me``
        self-truncate; both sides are static (scatter.py)."""
        n = len(op.comm_group)
        es = op.dtype_size or 1
        blockbytes = flipped * es
        sendaddr = int(op.args["sendbuf"])
        r_fail: int | None = None
        if blockbytes > 0:
            for r in range(n):
                if self._oob(sendaddr + r * blockbytes, blockbytes):
                    r_fail = r
                    break
        truncates = blockbytes > int(op.args["recvcount"]) * es
        if r_fail is not None and (not truncates or r_fail <= op.me):
            return self._p(
                Outcome.SEG_FAULT, "oob-block-read", "sendcount", "scalar", bit,
                f"block {r_fail} read at stride {blockbytes}B leaves the arena",
            )
        if truncates and (r_fail is None or op.me < r_fail):
            return self._p(
                Outcome.MPI_ERR, "recv-truncate", "sendcount", "scalar", bit,
                f"own {flipped}-element block exceeds posted recvcount",
            )
        return None

    def _vector(
        self,
        op: SkeletonOp,
        param: str,
        elem: int,
        clean: int,
        flipped: int,
        bit: int,
    ) -> Prediction | None:
        name = op.name
        es = op.dtype_size or 1
        a = op.args
        at_root = op.root_world is not None and op.rank == op.root_world
        if param in ("sendcounts", "recvcounts") and flipped < 0:
            # check_counts_array runs on every rank for every collective
            # that takes count vectors (context.py).
            return self._p(
                Outcome.MPI_ERR, "negative-count", param, "vector", bit,
                f"{param}[{elem}] {clean} -> {flipped} fails check_counts_array",
            )
        if name == "Gatherv":
            if param == "recvcounts":
                if not at_root:
                    return self._p(
                        Outcome.SUCCESS, "ignored-param", param, "vector", bit,
                        "recvcounts are significant only at the Gatherv root",
                    )
                if flipped < clean:
                    return self._p(
                        Outcome.MPI_ERR, "recv-truncate", param, "vector", bit,
                        f"rank {elem} contributes {clean} elements, root posts {flipped}",
                    )
                return self._p(
                    Outcome.SUCCESS, "truncate-only-param", param, "vector", bit,
                    "payload is written verbatim; the count only bounds truncate",
                )
            if param == "displs":
                if not at_root:
                    return self._p(
                        Outcome.SUCCESS, "ignored-param", param, "vector", bit,
                        "displs are significant only at the Gatherv root",
                    )
                nb = int(a["recvcounts"][elem]) * es
                if self._oob(int(a["recvbuf"]) + flipped * es, nb):
                    return self._p(
                        Outcome.SEG_FAULT, "oob-displaced-write", param, "vector", bit,
                        f"block {elem} write at displacement {flipped} leaves the arena",
                    )
                return None
        if name == "Scatterv":
            if param == "sendcounts":
                if not at_root:
                    return self._p(
                        Outcome.SUCCESS, "ignored-param", param, "vector", bit,
                        "sendcounts are significant only at the Scatterv root",
                    )
                addr = int(a["sendbuf"]) + int(a["displs"][elem]) * es
                if self._oob(addr, flipped * es):
                    return self._p(
                        Outcome.SEG_FAULT, "oob-displaced-read", param, "vector", bit,
                        f"block {elem} read of {flipped}×{es}B leaves the arena",
                    )
                if flipped > clean:
                    return self._p(
                        Outcome.MPI_ERR, "oversize-truncate", param, "vector", bit,
                        f"rank {elem} posts {clean} elements, block is {flipped}",
                    )
                return None
            if param == "displs":
                if not at_root:
                    return self._p(
                        Outcome.SUCCESS, "ignored-param", param, "vector", bit,
                        "displs are significant only at the Scatterv root",
                    )
                nb = int(a["sendcounts"][elem]) * es
                if self._oob(int(a["sendbuf"]) + flipped * es, nb):
                    return self._p(
                        Outcome.SEG_FAULT, "oob-displaced-read", param, "vector", bit,
                        f"block {elem} read at displacement {flipped} leaves the arena",
                    )
                return None
        if name == "Allgatherv":
            # Only the own-slot prologue (read, truncate, write before
            # any ring step) is provably ordered.
            if param == "recvcounts" and elem == op.me and flipped < clean:
                return self._p(
                    Outcome.MPI_ERR, "recv-truncate", param, "vector", bit,
                    f"own {clean}-element contribution exceeds posted {flipped}",
                )
            if param == "displs" and elem == op.me:
                nb = int(a["recvcounts"][op.me]) * es
                if self._oob(int(a["recvbuf"]) + flipped * es, nb):
                    return self._p(
                        Outcome.SEG_FAULT, "oob-displaced-write", param, "vector", bit,
                        f"own block write at displacement {flipped} leaves the arena",
                    )
            return None
        return None

    def _handle(
        self, op: SkeletonOp, param: str, flipped: int, bit: int
    ) -> Prediction | None:
        if param == "comm":
            table = self.skeleton.comms
        elif param == "op":
            table = self.skeleton.reduce_ops
        else:
            table = self.skeleton.datatypes
        return self._resolve_static(
            table, op, param, "handle", flipped, bit, allow_alias=(param != "comm")
        )

    def _resolve_static(
        self,
        table: HandleTable,
        op: SkeletonOp,
        param: str,
        kind: str,
        flipped: int,
        bit: int,
        allow_alias: bool,
    ) -> Prediction | None:
        status, live = table.resolve_static(flipped)
        if status == "segfault":
            return self._p(
                Outcome.SEG_FAULT, "unmapped-handle", param, kind, bit,
                f"{flipped:#x} dereferences outside the {table.kind} space",
            )
        if status == "corrupt":
            return self._p(
                Outcome.MPI_ERR, "corrupted-handle", param, kind, bit,
                f"{flipped:#x} lands inside live object {live:#x}",
            )
        if not allow_alias:  # comm: membership is static too
            group = table.groups.get(live, ())
            if op.rank not in group:
                return self._p(
                    Outcome.MPI_ERR, "alias-nonmember-comm", param, kind, bit,
                    f"aliased {table.descr.get(live, hex(live))} excludes rank {op.rank}",
                )
        return None  # live alias: semantics change, outcome is dynamic

    # -- static mirror of injector.buffer_extent_bytes ------------------

    def _buffer_extent(self, op: SkeletonOp, param: str) -> int:
        a = op.args
        name = op.name
        n = len(op.comm_group)
        es = op.dtype_size or 1

        def vspan(counts_key: str, displs_key: str) -> int:
            counts = np.asarray(a[counts_key], dtype=np.int64)
            displs = np.asarray(a[displs_key], dtype=np.int64)
            if counts.size == 0:
                return 0
            return int((displs + counts).max()) * es

        if name in ("Bcast", "Reduce", "Allreduce", "Scan", "Exscan"):
            return int(a["count"]) * es
        if name == "Alltoallv":
            if param == "sendbuf":
                return vspan("sendcounts", "sdispls")
            return vspan("recvcounts", "rdispls")
        if name == "Alltoallw":
            side = "send" if param == "sendbuf" else "recv"
            counts = np.asarray(a[f"{side}counts"], dtype=np.int64)
            displs = np.asarray(
                a["sdispls" if side == "send" else "rdispls"], dtype=np.int64
            )
            sizes = np.asarray(
                [self.skeleton.datatypes.sizes.get(int(h), 0) for h in a[f"{side}types"]],
                dtype=np.int64,
            )
            if counts.size == 0:
                return 0
            return int((displs + counts * sizes).max())
        if name == "Reduce_scatter":
            per = int(a["recvcount"]) * es
            return per * n if param == "sendbuf" else per
        if name == "Gatherv":
            if param == "sendbuf":
                return int(a["sendcount"]) * es
            return vspan("recvcounts", "displs")
        if name == "Scatterv":
            if param == "sendbuf":
                return vspan("sendcounts", "displs")
            return int(a["recvcount"]) * es
        if name == "Allgatherv":
            if param == "sendbuf":
                return int(a["sendcount"]) * es
            return vspan("recvcounts", "displs")
        per_rank = int(a["sendcount" if param == "sendbuf" else "recvcount"])
        if name == "Scatter":
            return per_rank * (n if param == "sendbuf" else 1) * es
        if name in ("Gather", "Allgather", "Alltoall"):
            return per_rank * (1 if param == "sendbuf" else n) * es
        return 0  # Barrier has no buffer parameters


def predict_tests(
    pre: PreClassifier,
    points: Sequence[InjectionPoint] | Iterable[InjectionPoint],
    tests_per_point: int,
) -> Iterator[tuple[int, int, InjectionPoint, Prediction | None]]:
    """Classify every test of a campaign, in campaign order."""
    for i, point in enumerate(points):
        for t in range(tests_per_point):
            yield i, t, point, pre.predict(point, i, t)
