"""Self-test of the fault-model conformance layer: every witness
observes its expected Table-I response, and every seeded delivery-layer
mutant breaks exactly the witnesses that claim to detect it.

This is the Table-I precedence pin for the composable models: a rank
stalled past the deadline is ``INF_LOOP`` (not a crash), a crash
mid-collective is ``MPI_ERR``, an absorbed duplicate is ``SUCCESS``.
"""

import pytest

from repro.verify import WITNESSES, model_conformance, run_witness

from tests.verify.test_mutant_selftest import caught_then_cured, layer


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witness_observes_expected_response(name):
    result = run_witness(WITNESSES[name], seed=0)
    assert result.ok, result.describe()


def test_precedence_pins():
    """The Table-I claims spelled out, independent of the sweep."""
    assert run_witness(WITNESSES["rank_stall"]).got == "INF_LOOP"
    assert run_witness(WITNESSES["rank_crash"]).got == "MPI_ERR"
    assert run_witness(WITNESSES["msg_dup"]).got == "SUCCESS"
    assert run_witness(WITNESSES["msg_drop"]).got == "INF_LOOP"


def test_clean_sweep_is_ok():
    report = model_conformance(seed=0)
    assert report.ok
    assert {r.witness for r in report.results} == set(WITNESSES)
    assert "all expected responses observed" in report.describe()


@pytest.mark.parametrize("name", layer("models"))
def test_mutant_is_detected(name):
    caught_then_cured(name, seed=0)


def test_mutant_patches_are_restored():
    """The delivery-layer mutants patch ``repro.injection.wire``; leaving
    the block puts every patched function back."""
    from repro.injection import wire
    from repro.verify import MUTANTS, installed_mutant

    originals = {
        target: getattr(wire, target)
        for name in layer("models")
        for module, target, _ in MUTANTS[name].patches
    }
    assert originals
    for name in layer("models"):
        with installed_mutant(name):
            pass
    for target, original in originals.items():
        assert getattr(wire, target) is original


def test_unknown_mutant_rejected():
    """There is one registry: a name outside it is no witness mutant."""
    from repro.verify import installed_mutant

    with pytest.raises(ValueError, match="unknown mutant 'nope'"):
        with installed_mutant("nope"):
            pass  # pragma: no cover
