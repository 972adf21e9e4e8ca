"""The checks must be able to fail: every seeded mutant in the one
registry installs a realistic defect that its layer's check is required
to catch, and removing the mutant must restore a clean pass.

Detection is parametrized over the registry one layer at a time, next
to each layer's fixtures: :func:`test_mutant_is_caught_then_cured` here
(conformance), ``tests/verify/test_model_witnesses.py`` (models),
``tests/snapshot/test_fork_equivalence.py`` (snapshot) and
``tests/analyze/test_matching.py`` (analyze), all through
:func:`caught_then_cured`.  A mutant added to :data:`MUTANTS` is
self-tested without editing any of them.
"""

import importlib

import pytest

from repro.analyze.matching import RULES
from repro.verify import FUZZED_COLLECTIVES, MUTANTS, WITNESSES, installed_mutant, run_mutant
from repro.verify.snapshot_check import PASSES

DRAWS = 15  # enough draws that every conformance mutant's trigger occurs

#: The names each layer's check reports.
LAYER_NAMES = {
    "conformance": set(FUZZED_COLLECTIVES),
    "models": set(WITNESSES),
    "snapshot": set(PASSES),
    "analyze": set(RULES),
}


def layer(name: str) -> list[str]:
    """The registry's mutants of one layer, for parametrizing."""
    return sorted(n for n, m in MUTANTS.items() if m.layer == name)


def caught_then_cured(name: str, **params) -> None:
    """The one self-test criterion: with mutant ``name`` installed its
    check flips exactly the names it lists, and without it the same check
    passes."""
    run = run_mutant(name, **params)
    assert run.clean, f"{name}: the check fails without the mutant\n{run.report}"
    assert set(run.found) == set(run.mutant.detected_by), run.describe()
    assert run.detected


def resolve(module: str, target: str):
    """The object holding ``target`` and the attribute's name."""
    *path, attr = target.split(".")
    owner = importlib.import_module(module)
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def originals(name: str) -> dict:
    return {
        (module, target): getattr(*resolve(module, target))
        for module, target, _ in MUTANTS[name].patches
    }


@pytest.mark.parametrize("name", layer("conformance"))
def test_mutant_is_caught_then_cured(name):
    caught_then_cured(name, seed=5, draws=DRAWS)


def test_every_layer_is_self_tested():
    """Each layer's detection test parametrizes over :func:`layer`, so
    every mutant is in one of them."""
    assert {m.layer for m in MUTANTS.values()} == set(LAYER_NAMES)
    assert len(MUTANTS) == 18


def test_patched_attributes_are_restored_exactly():
    """Every patch of every mutant — module functions, a class, methods —
    is replaced inside the block and is the very same object after it."""
    for name in MUTANTS:
        saved = originals(name)
        with installed_mutant(name):
            for (module, target), orig in saved.items():
                assert getattr(*resolve(module, target)) is not orig, (name, target)
        for (module, target), orig in saved.items():
            assert getattr(*resolve(module, target)) is orig, (name, target)


def test_restores_even_when_body_raises():
    for name in MUTANTS:
        saved = originals(name)
        with pytest.raises(RuntimeError):
            with installed_mutant(name):
                raise RuntimeError("boom")
        for (module, target), orig in saved.items():
            assert getattr(*resolve(module, target)) is orig, (name, target)


def test_unknown_mutant_rejected():
    with pytest.raises(ValueError, match="unknown mutant"):
        with installed_mutant("nonexistent"):
            pass  # pragma: no cover
    with pytest.raises(ValueError, match="unknown mutant"):
        run_mutant("nonexistent")


def test_mutants_declare_detection_surface():
    for mutant in MUTANTS.values():
        assert mutant.detected_by, mutant.name
        assert set(mutant.detected_by) <= LAYER_NAMES[mutant.layer], mutant.name
