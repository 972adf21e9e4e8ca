"""Seeded defects the verification checks must catch: one registry.

A verifier that cannot fail a broken program verifies nothing, so each
named mutant here installs a realistic bug — wrong block bookkeeping in
a ring schedule, a drop that silently retries, a forked child handed the
wrong RNG state, a rank disagreeing about a root — and :func:`run_mutant`
requires the check of the mutant's layer to flip every name in its
``detected_by`` with the mutant installed, and to pass without it:

* ``conformance`` — the differential sweep (:func:`~repro.verify.
  conformance.run_conformance`) of the named collectives;
* ``models`` — the fault-model witnesses (:func:`~repro.verify.models.
  model_conformance`) named;
* ``snapshot`` — the fork-equivalence oracle (:func:`~repro.verify.
  snapshot_check.fork_equivalence`) over the named passes;
* ``analyze`` — the collective-matching checker, which must report the
  named rules on the app's extracted skeleton.

Every mutant is a set of run-time patches of names the program already
calls (ProFIPy-style), installed by :func:`installed_mutant` and undone
on exit, so no production code path knows mutants exist.  Patching
targets the *consuming* namespace: drivers bind schedules with ``from
.ring import ring_allgather_steps``, so replacing the attribute in
:mod:`repro.simmpi.collectives.ring` alone would mutate nothing.  A
target ``Owner.attr`` patches a class attribute (a method, say).
"""

from __future__ import annotations

import importlib
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, NamedTuple

from ..apps.registry import make_app
from .conformance import run_conformance
from .models import model_conformance
from .snapshot_check import PASSES, fork_equivalence


# -- collective algorithms ----------------------------------------------

def _ring_wrong_block(rank: int, n: int) -> list[tuple[int, int, int, int, int]]:
    """Ring allgather with the received block filed one slot too low.

    Messages still pair up exactly (same peers, same steps), so nothing
    deadlocks and no sanitizer fires for the equal-count Allgather — the
    data is simply in the wrong place, which only a semantic oracle
    sees.
    """
    right = (rank + 1) % n
    left = (rank - 1) % n
    return [
        (right, left, (rank - s) % n, (rank - s - 2) % n, s)
        for s in range(n - 1)
    ]


def _scan_swapped_operands(orig: Callable) -> Callable:
    """``Scan`` folding ``op(mine, prefix)`` instead of ``op(prefix, mine)``.

    Invisible for every commutative op — only the non-commutative test
    ops (``FF_TAKELEFT``/``FF_TAKERIGHT``) distinguish the two, which is
    exactly what they are in the fuzzer to prove.
    """

    def scan(env, sendaddr, recvaddr, count, dtype, op):
        nbytes = count * dtype.size
        mine = env.memory.read(sendaddr, nbytes)
        if env.me > 0:
            prefix = yield from env.recv(env.me - 1, 0)
            env.check_truncate(prefix, nbytes)
            mine = op.apply(mine, prefix, dtype, rank=env.rank)
        env.memory.write(recvaddr, mine)
        if env.me + 1 < env.size:
            yield from env.send(env.me + 1, 0, mine)

    return scan


def _bcast_shifted_root(orig: Callable) -> Callable:
    """``Bcast`` sourcing from ``root + 1`` — every rank agrees on the
    wrong root, so the traffic is self-consistent and only the payload
    betrays the bug."""

    def bcast(env, addr, count, dtype, root, algorithm="binomial", step_base=0):
        yield from orig(
            env, addr, count, dtype, (root + 1) % env.size,
            algorithm=algorithm, step_base=step_base,
        )

    return bcast


# -- the snapshot engine --------------------------------------------------

def _rng_desync(orig: Callable) -> Callable:
    """``build_injector`` after one extra draw: the forked child picks its
    fault bit from a generator one step ahead of the scratch run's."""

    def build_injector(spec, rng):
        rng.integers(0, 1 << 16)
        return orig(spec, rng)

    return build_injector


def _stale_prefix(orig: Callable) -> Callable:
    """``take_snapshot``, then one byte of every heap allocation on every
    rank corrupted in the parked parent, which every fork inherits."""

    def take_snapshot(point, scheduler, contexts, fibers, logs):
        snapshot = orig(point, scheduler, contexts, fibers, logs)
        for ctx in contexts:
            mem = ctx.memory
            for seg in mem.segments:
                mem.raw[seg.addr - mem.base] ^= 1
        return snapshot

    return take_snapshot


def _park_one_early(orig: type) -> type:
    """The park instrument, pointed one invocation early at its site."""

    class ParkOneEarly(orig):
        @property
        def point(self):
            return self._point

        @point.setter
        def point(self, point):
            if point.invocation > 0:
                point = replace(point, invocation=point.invocation - 1)
            self._point = point

    return ParkOneEarly


def _stale_walk_target(orig: Callable) -> Callable:
    """``SnapshotEngine._pull`` handing each unit after the first of one
    stream with the previous unit's point: the job parks where it has
    just been, and the unit's tests fork there."""

    def _pull(self, units):
        unit = orig(self, units)
        stream, previous = getattr(self, "_stale_walk", (None, None))
        if unit is not None:
            self._stale_walk = (units, unit.point)
            if stream is units:
                unit = unit._replace(point=previous)
        return unit

    return _pull


def _replay_wrong_slot(orig: Callable) -> Callable:
    """``InjectionRunner.run_one`` returning the previous call's result:
    a replayed test delivers the test before it into its slot."""
    previous: deque = deque()

    def run_one(self, spec, rng):
        previous.append(orig(self, spec, rng))
        return previous.popleft() if len(previous) > 1 else previous[0]

    return run_one


def _reap_newest(orig: Callable) -> Callable:
    """``SnapshotEngine._collect`` reaping the newest child first when
    more than one is in flight, so results leave slot order."""

    def _collect(self, inflight: deque, deliver, m):
        if len(inflight) > 1:
            inflight.rotate(1)
        return orig(self, inflight, deliver, m)

    return _collect


def _overreach(orig: Callable) -> Callable:
    """``SequentialStopper.certain`` one test past what it is certain of
    (capped at ``most``): a test past the serial cut is forked."""

    def certain(self, tests, most):
        return min(most, orig(self, tests, most) + 1)

    return certain


# -- skeletons ------------------------------------------------------------

def _skeleton(transform: str) -> Callable[[Callable], Callable]:
    """Patch factory for ``extract_skeleton``: the extracted skeleton,
    handed through :mod:`repro.analyze.skeleton`'s ``transform`` (named,
    and looked up at install time: :mod:`repro.analyze` imports this
    package)."""

    def factory(extract: Callable) -> Callable:
        from ..analyze import skeleton

        mutate = getattr(skeleton, transform)

        def extract_skeleton(app, *args, **kwargs):
            return mutate(extract(app, *args, **kwargs))

        return extract_skeleton

    return factory


# -- the registry ---------------------------------------------------------

@dataclass(frozen=True)
class Mutant:
    """One installable defect.

    ``patches`` are ``(module, target, factory)``: ``target`` is an
    attribute of ``module`` or ``Owner.attr``, and ``factory`` takes its
    original value and returns the replacement.
    """

    name: str
    #: Whose check must catch it: ``conformance``, ``models``,
    #: ``snapshot`` or ``analyze``.
    layer: str
    description: str
    patches: tuple[tuple[str, str, Callable[[Any], Any]], ...]
    #: The names of the layer's check that must flip under this mutant.
    detected_by: tuple[str, ...]


_ENGINE = "repro.snapshot.engine"

MUTANTS: dict[str, Mutant] = {
    m.name: m
    for m in (
        Mutant(
            "ring_wrong_block", "conformance",
            "ring allgather stores received blocks one slot too low",
            (
                ("repro.simmpi.collectives.allgather", "ring_allgather_steps",
                 lambda orig: _ring_wrong_block),
                ("repro.simmpi.collectives.vvariants", "ring_allgather_steps",
                 lambda orig: _ring_wrong_block),
            ),
            detected_by=("Allgather", "Allgatherv"),
        ),
        Mutant(
            "scan_swapped_operands", "conformance",
            "Scan folds op(mine, prefix) instead of op(prefix, mine)",
            (("repro.simmpi.collectives", "scan", _scan_swapped_operands),),
            detected_by=("Scan",),
        ),
        Mutant(
            "bcast_shifted_root", "conformance",
            "Bcast broadcasts from (root + 1) mod size",
            (("repro.simmpi.collectives", "bcast", _bcast_shifted_root),),
            detected_by=("Bcast",),
        ),
        Mutant(
            "wire_drop_retries", "models",
            "msg_drop silently retries: the dropped message is delivered anyway",
            (("repro.injection.wire", "drop_payloads",
              lambda orig: (lambda payload: [payload])),),
            detected_by=("msg_drop", "scenario_drop"),
        ),
        Mutant(
            "wire_reorder_fifo", "models",
            "msg_reorder preserves FIFO: held message released in order",
            (("repro.injection.wire", "reorder_release",
              lambda orig: (lambda held, new: [held, new])),),
            detected_by=("msg_reorder",),
        ),
        Mutant(
            "stall_under_deadline", "models",
            "rank_stall charges one step instead of blowing the deadline",
            (("repro.injection.wire", "resolve_stall_weight",
              lambda orig: (lambda explicit, step_budget: 1)),),
            detected_by=("rank_stall", "scenario_stall"),
        ),
        Mutant(
            "snapshot_rng_desync", "snapshot",
            "the engine burns one extra RNG draw before handing the per-test "
            "generator to the forked child, desynchronising fault-bit selection",
            ((_ENGINE, "build_injector", _rng_desync),),
            detected_by=PASSES,
        ),
        Mutant(
            "snapshot_stale_prefix", "snapshot",
            "one byte of every heap allocation on every rank is corrupted in "
            "the parked parent after capture, so every fork inherits a prefix "
            "the scratch run never had",
            ((_ENGINE, "take_snapshot", _stale_prefix),),
            detected_by=PASSES,
        ),
        Mutant(
            "snapshot_wrong_invocation", "snapshot",
            "the engine parks one invocation early at the target site, so "
            "forked faults fire at the wrong dynamic call",
            ((_ENGINE, "_ParkInstrument", _park_one_early),),
            detected_by=PASSES,
        ),
        Mutant(
            "snapshot_walk_stale_target", "snapshot",
            "walking on to the next unit, the park is not re-pointed, so that "
            "unit's tests fork at the previous site",
            ((_ENGINE, "SnapshotEngine._pull", _stale_walk_target),),
            detected_by=("walk",),
        ),
        Mutant(
            "snapshot_replay_wrong_slot", "snapshot",
            "a test replayed in the park is not delivered: the previous "
            "replay's result goes into its slot",
            (("repro.injection.runner", "InjectionRunner.run_one", _replay_wrong_slot),),
            detected_by=("mixed", "pipelined"),
        ),
        Mutant(
            "snapshot_pipeline_reorder", "snapshot",
            "with more than one forked child in flight, the newest is reaped "
            "and delivered first, so results leave task order",
            ((_ENGINE, "SnapshotEngine._collect", _reap_newest),),
            detected_by=("pipelined",),
        ),
        Mutant(
            "snapshot_horizon_overreach", "snapshot",
            "a stopper-driven unit hands out one test past the ones the "
            "stopper is certain to run, so a test past the serial cut is "
            "forked and delivered",
            (("repro.steer.stopping", "SequentialStopper.certain", _overreach),),
            detected_by=("stopped",),
        ),
        Mutant(
            "order_swap", "analyze",
            "rank 1 issues two adjacent collectives in the opposite order",
            (("repro.analyze.skeleton", "extract_skeleton",
              _skeleton("swap_adjacent_collectives")),),
            detected_by=("order_mismatch",),
        ),
        Mutant(
            "wrong_root", "analyze",
            "rank 1 disagrees with its peers about a collective's root",
            (("repro.analyze.skeleton", "extract_skeleton", _skeleton("shift_root")),),
            detected_by=("root_mismatch",),
        ),
        Mutant(
            "dtype_counts", "analyze",
            "rank 0 posts the same count of a wider datatype (byte volumes differ)",
            (("repro.analyze.skeleton", "extract_skeleton", _skeleton("widen_dtype")),),
            detected_by=("dtype_mismatch", "count_mismatch"),
        ),
        Mutant(
            "dropped_call", "analyze",
            "rank 0 skips its final collective (structural deadlock)",
            (("repro.analyze.skeleton", "extract_skeleton", _skeleton("drop_last_call")),),
            detected_by=("length_mismatch",),
        ),
        Mutant(
            "op_swap", "analyze",
            "rank 1 reduces with a different operation than its peers",
            (("repro.analyze.skeleton", "extract_skeleton", _skeleton("swap_reduce_op")),),
            detected_by=("op_mismatch",),
        ),
    )
}


def _owner(module_name: str, target: str) -> tuple[Any, str]:
    """The object holding ``target`` (``attr`` or ``Owner.attr``) in
    ``module_name``, and the attribute's name."""
    *path, attr = target.split(".")
    owner = importlib.import_module(module_name)
    for name in path:
        owner = getattr(owner, name)
    return owner, attr


def _lookup(name: str) -> Mutant:
    try:
        return MUTANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutant {name!r}; choices: {', '.join(sorted(MUTANTS))}"
        ) from None


@contextmanager
def installed_mutant(name: str) -> Iterator[Mutant]:
    """Install mutant ``name``'s patches for the duration of the ``with``
    block, restoring every original on exit."""
    mutant = _lookup(name)
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module_name, target, factory in mutant.patches:
            owner, attr = _owner(module_name, target)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield mutant
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- the one check --------------------------------------------------------

class MutantRun(NamedTuple):
    """What :func:`run_mutant` saw."""

    mutant: Mutant
    #: Names of the layer's check that flipped with the mutant installed.
    found: tuple[str, ...]
    #: The same check passed without the mutant.
    clean: bool
    #: The check's own report with the mutant installed.
    report: str

    @property
    def detected(self) -> bool:
        return self.clean and set(self.mutant.detected_by) <= set(self.found)

    def describe(self) -> str:
        m = self.mutant
        if self.detected:
            verdict = "DETECTED (the check has teeth)"
        elif not self.clean:
            verdict = "NOT DETECTED — the check fails without the mutant too"
        else:
            verdict = "NOT DETECTED — harness failure"
        return (
            f"{self.report}\nmutant {m.name!r} ({m.layer}): {verdict}; expected "
            f"{', '.join(m.detected_by)}, found {', '.join(self.found) or 'nothing'}"
        )


def _armed(mutant: str | None):
    return installed_mutant(mutant) if mutant is not None else nullcontext()


def _conformance(mutant, names, *, seed, draws, **_) -> tuple[list[str], str]:
    with _armed(mutant):
        report = run_conformance(seed=seed, draws_per_collective=draws, collectives=names)
    return [name for name, rep in report.reports.items() if not rep.ok], report.describe()


def _models(mutant, names, *, seed, **_) -> tuple[list[str], str]:
    with _armed(mutant):
        report = model_conformance(seed=seed)
    return [r.witness for r in report.failures], report.describe()


def _snapshot(mutant, names, *, seed, app, profile, tests, max_points, **_):
    # The oracle installs the mutant itself: its scratch runs stay clean.
    report = fork_equivalence(
        app, seed=seed, tests_per_point=tests, max_points=max_points,
        passes=names, mutant=mutant, profile=profile,
    )
    return report.diverged, report.describe()


def _analyze(mutant, names, *, app, **_) -> tuple[list[str], str]:
    from ..analyze import skeleton  # not at the top: repro.analyze imports this package
    from ..analyze.matching import check_skeleton

    with _armed(mutant):
        report = check_skeleton(skeleton.extract_skeleton(app))
    return sorted({f.rule for f in report.errors}), report.describe()


_CHECKS = {"conformance": _conformance, "models": _models,
           "snapshot": _snapshot, "analyze": _analyze}


def run_mutant(
    name: str,
    *,
    seed: int = 0,
    draws: int = 200,
    app=None,
    profile=None,
    tests: int = 3,
    max_points: int = 4,
) -> MutantRun:
    """Run mutant ``name``'s layer check with the mutant installed and
    without it.  ``draws`` is the conformance sweep's draws per
    collective; ``app`` (default LU class T) is what the snapshot oracle
    serves ``tests`` tests at ``max_points`` points of (``profile``: its
    profile, if already taken) and the skeleton checker extracts."""
    mutant = _lookup(name)
    if app is None:
        app = make_app("lu", "T")
    check = _CHECKS[mutant.layer]
    params = dict(seed=seed, draws=draws, app=app, profile=profile,
                  tests=tests, max_points=max_points)
    found, report = check(name, mutant.detected_by, **params)
    flipped_clean, _ = check(None, mutant.detected_by, **params)
    return MutantRun(mutant, tuple(found), not flipped_clean, report)
