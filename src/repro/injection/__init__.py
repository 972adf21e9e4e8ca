"""``repro.injection`` — the fault-injection engine.

Single-bit flips in the input parameters of collective operations,
classified into the six application responses of the paper's Table I —
plus the composable fault-model layer (:mod:`repro.injection.models`)
generalizing that space to multi-bit bursts, wire-level message faults,
rank crash/stall, and timeline-driven multi-fault scenarios.
"""

from .bitflip import flip_array_element, flip_int32, flip_int64, random_buffer_bit
from .campaign import Campaign, CampaignConfig, CampaignResult, PointResult
from .config import ConfigError, InjectionConfig
from .injector import FaultInjector, InjectionRecord, buffer_extent_bytes
from .models import (
    MODELS,
    SELECTABLE_MODELS,
    FaultModel,
    build_injector,
    draw_spec,
    draw_task,
    model_for_spec,
    task_rng,
)
from .multibit import BurstInjector
from .outcome import OUTCOME_ORDER, Outcome, classify_exception
from .runner import InjectionRunner, TestResult
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioInjector,
    ScenarioTask,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .space import FaultSpec, InjectionPoint, enumerate_points, points_per_site
from .targets import (
    all_targets,
    buffer_targets,
    param_kind,
    pick_target,
    targets_for_policy,
)
from .wire import WireFaultInjector

__all__ = [
    "BurstInjector",
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "ConfigError",
    "FaultInjector",
    "FaultModel",
    "FaultSpec",
    "InjectionConfig",
    "InjectionPoint",
    "InjectionRecord",
    "InjectionRunner",
    "MODELS",
    "OUTCOME_ORDER",
    "Outcome",
    "PointResult",
    "SELECTABLE_MODELS",
    "Scenario",
    "ScenarioError",
    "ScenarioInjector",
    "ScenarioTask",
    "TestResult",
    "WireFaultInjector",
    "all_targets",
    "buffer_extent_bytes",
    "buffer_targets",
    "build_injector",
    "classify_exception",
    "draw_spec",
    "draw_task",
    "enumerate_points",
    "flip_array_element",
    "flip_int32",
    "flip_int64",
    "load_scenario",
    "model_for_spec",
    "param_kind",
    "parse_scenario",
    "pick_target",
    "points_per_site",
    "random_buffer_bit",
    "serialize_scenario",
    "task_rng",
    "targets_for_policy",
]
