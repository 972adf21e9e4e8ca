"""Seeded defects that the conformance harness must catch.

A verifier that cannot fail a broken simulator verifies nothing, so each
named mutant here installs a realistic bug — wrong block bookkeeping in
a ring schedule, a swapped operand in a fold, a shifted root — and the
self-test (``tests/verify/test_mutant_selftest.py``, also ``fastfit
verify --mutant``) asserts :func:`repro.verify.conformance.run_conformance`
reports failures with the mutant installed and none without.

Patching targets the *consuming* modules: drivers bind schedules with
``from .ring import ring_allgather_steps``, so replacing the attribute
in :mod:`repro.simmpi.collectives.ring` alone would mutate nothing.
``Context`` dispatches ``coll.scan`` / ``coll.bcast`` through the
package namespace at call time, so those patch the package attribute.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Iterator


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


@dataclass(frozen=True)
class Mutant:
    """One installable defect.

    ``patches`` maps ``(module, attribute)`` to a factory taking the
    original attribute and returning its replacement.
    """

    name: str
    description: str
    patches: tuple[tuple[str, str, Callable[[Any], Any]], ...]
    #: Collectives whose conformance sweep must fail under this mutant.
    detected_by: tuple[str, ...]


MUTANTS: dict[str, Mutant] = {
    m.name: m
    for m in (
        Mutant(
            "ring_wrong_block",
            "ring allgather stores received blocks one slot too low",
            (
                (
                    "repro.simmpi.collectives.allgather",
                    "ring_allgather_steps",
                    lambda orig: _ring_wrong_block,
                ),
                (
                    "repro.simmpi.collectives.vvariants",
                    "ring_allgather_steps",
                    lambda orig: _ring_wrong_block,
                ),
            ),
            detected_by=("Allgather", "Allgatherv"),
        ),
        Mutant(
            "scan_swapped_operands",
            "Scan folds op(mine, prefix) instead of op(prefix, mine)",
            (("repro.simmpi.collectives", "scan", _scan_swapped_operands),),
            detected_by=("Scan",),
        ),
        Mutant(
            "bcast_shifted_root",
            "Bcast broadcasts from (root + 1) mod size",
            (("repro.simmpi.collectives", "bcast", _bcast_shifted_root),),
            detected_by=("Bcast",),
        ),
    )
}


@contextmanager
def installed_mutant(registry: dict, name: str, kind: str = "mutant") -> Iterator:
    """Look ``name`` up in ``registry`` and install its ``(module, attr,
    factory)`` patches for the duration of the ``with`` block, restoring
    every original on exit — the one patch installer behind
    :func:`seeded_mutant` and
    :func:`repro.verify.models.seeded_model_mutant`."""
    try:
        mutant = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown {kind} {name!r}; choices: {', '.join(sorted(registry))}"
        ) from None
    saved: list[tuple[Any, str, Any]] = []
    try:
        for module_name, attr, factory in mutant.patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield mutant
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def seeded_mutant(name: str) -> ContextManager[Mutant]:
    """Install the named mutant for the duration of the ``with`` block."""
    return installed_mutant(MUTANTS, name)
