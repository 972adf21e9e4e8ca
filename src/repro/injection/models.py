"""The composable fault-model registry.

The paper's sensitivity study uses exactly one fault model — a single
bit flip in one collective parameter — and that model stays the default
everywhere (``FaultSpec`` is untouched, so existing campaign digests and
histograms are byte-stable).  This module generalizes the *choice* of
model: each :class:`FaultModel` names an injector builder plus the
integration properties the rest of the stack keys on — whether the
snapshot-and-fork engine may serve it from a parked prefix
(``snapshot_safe``: only single-site parameter faults qualify) and
whether the static preclassifier understands it (``preclassifiable``:
only the paper's single-bit model).

``draw_task`` is the per-test recipe — the one place that spells the
``SeedSequence(seed, spawn_key=(point_index, test_index))`` derivation
(``task_rng``) and turns ``(point, rng)`` into a concrete spec
(``draw_spec``).  The unit executor, quarantine synthesis, the static
pre-classifier and every replay oracle call it, which is what keeps
serial ↔ parallel ↔ resumed ↔ forked campaigns bit-identical for every
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .injector import FaultInjector
from .multibit import BurstInjector
from .scenario import Scenario, ScenarioInjector
from .space import FaultSpec, InjectionPoint, ModelSpec
from .targets import pick_target
from .wire import RANK_MODELS, WIRE_MODELS, WireFaultInjector


@dataclass(frozen=True)
class FaultModel:
    """One entry in the fault-model catalog.

    ``kind`` groups models by where the fault strikes: ``"param"``
    (collective arguments, the paper's space), ``"wire"`` (the simulated
    network), ``"rank"`` (the process itself), or ``"scenario"``
    (a timeline composing the others).
    """

    name: str
    kind: str
    description: str
    snapshot_safe: bool
    builder: Callable
    preclassifiable: bool = False


MODELS: dict[str, FaultModel] = {
    "bitflip": FaultModel(
        "bitflip", "param",
        "single bit flip in one collective parameter (the paper's model)",
        snapshot_safe=True, builder=FaultInjector, preclassifiable=True,
    ),
    "multibit": FaultModel(
        "multibit", "param",
        "burst of adjacent bit flips in one collective parameter",
        snapshot_safe=True, builder=BurstInjector,
    ),
    "msg_drop": FaultModel(
        "msg_drop", "wire",
        "one message silently dropped at the delivery layer",
        snapshot_safe=False, builder=WireFaultInjector,
    ),
    "msg_dup": FaultModel(
        "msg_dup", "wire",
        "one message delivered twice",
        snapshot_safe=False, builder=WireFaultInjector,
    ),
    "msg_reorder": FaultModel(
        "msg_reorder", "wire",
        "two same-key messages delivered out of order",
        snapshot_safe=False, builder=WireFaultInjector,
    ),
    "msg_corrupt": FaultModel(
        "msg_corrupt", "wire",
        "payload bits flipped on the wire",
        snapshot_safe=False, builder=WireFaultInjector,
    ),
    "rank_crash": FaultModel(
        "rank_crash", "rank",
        "rank fails entering the collective (MPI process failure)",
        snapshot_safe=False, builder=WireFaultInjector,
    ),
    "rank_stall": FaultModel(
        "rank_stall", "rank",
        "rank stalls, charging the deadline budget (unbounded by default)",
        snapshot_safe=False, builder=WireFaultInjector,
    ),
    "scenario": FaultModel(
        "scenario", "scenario",
        "timeline of timed, possibly overlapping fault tasks",
        snapshot_safe=False, builder=ScenarioInjector,
    ),
}

#: Names a user may pass to ``--fault-model`` ("scenario" is reached
#: via ``--scenario`` instead, which carries the timeline).
SELECTABLE_MODELS = tuple(n for n in MODELS if n != "scenario")


def model_for_spec(spec) -> FaultModel:
    """The catalog entry a spec runs under (``FaultSpec`` → bitflip)."""
    return MODELS[getattr(spec, "model", "bitflip")]


def build_injector(spec, rng: np.random.Generator, tracer=None):
    """Construct the armed injector instrument for one test."""
    return model_for_spec(spec).builder(spec, rng, tracer=tracer)


def task_rng(seed: int, point_index: int, test_index: int) -> np.random.Generator:
    """The replayable RNG stream of campaign test ``(point_index,
    test_index)`` — a pure function of the coordinates, so a test draws
    the same fault however (and wherever) it is scheduled."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(point_index, test_index))
    )


def draw_task(
    point: InjectionPoint,
    seed: int,
    point_index: int,
    test_index: int,
    *,
    policy: str,
    model: str = "bitflip",
    scenario: Scenario | None = None,
):
    """One test's ``(spec, rng)``: its RNG stream and the spec drawn from it."""
    rng = task_rng(seed, point_index, test_index)
    return draw_spec(point, rng, policy=policy, model=model, scenario=scenario), rng


def draw_spec(
    point: InjectionPoint,
    rng: np.random.Generator,
    *,
    policy: str,
    model: str = "bitflip",
    scenario: Scenario | None = None,
):
    """Draw one concrete spec for one test — the shared RNG contract.

    The bitflip path is bit-for-bit the historical behavior (one
    ``pick_target`` draw, bit deferred to injection time); parameter
    models make the same single draw; wire/rank models draw nothing at
    spec time (their knobs come from the same RNG at injection time);
    scenario tests carry the timeline verbatim.
    """
    if scenario is not None:
        return ModelSpec(point, "scenario", scenario=scenario)
    if model == "bitflip":
        return FaultSpec(point, pick_target(rng, point.collective, policy), None)
    entry = MODELS[model]
    if entry.kind == "param":
        return ModelSpec(point, model, param=pick_target(rng, point.collective, policy))
    if model in WIRE_MODELS:
        return ModelSpec(point, model, param="payload")
    if model in RANK_MODELS:
        return ModelSpec(point, model, param="rank")
    raise ValueError(f"cannot draw specs for model {model!r}")  # pragma: no cover
