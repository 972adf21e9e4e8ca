"""Timeline-driven multi-fault scenarios.

FINJ-style workload files: a scenario is a named sequence of timed fault
tasks ``(t, model, rank, ...)``, possibly overlapping, where ``t`` is the
rank-local collective sequence index (``CollectiveCall.seq``) — the
simulator's deterministic clock.  A task *fires at the first collective
its rank enters with* ``seq >= t``; parameter tasks corrupt that call,
wire/rank tasks arm from it onward.

Determinism contract: a scenario test draws every random quantity
(parameter choice, bit, burst width) from the campaign's per-test
``SeedSequence(entropy=seed, spawn_key=(point_index, test_index))``
stream in scheduler order, so serial, parallel, and resumed campaigns
replay bit-identically — the same contract single-bit tests obey.

The on-disk format is JSON::

    {"version": 1, "name": "drop-then-flip",
     "tasks": [{"t": 0, "model": "msg_drop", "rank": 1},
               {"t": 2, "model": "bitflip", "rank": 0, "param": "count"}]}

Unknown keys, unknown models, and ill-typed fields are rejected with
:class:`ScenarioError` (the CLI maps it to a one-line exit-2 error).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

import numpy as np

from ..simmpi import COLLECTIVE_PARAMS, CollectiveCall, Instrument, MPIError
from ..simmpi.scheduler import DeliveryTap
from .injector import FaultInjector, InjectionRecord
from .multibit import BurstInjector
from .space import FaultSpec, InjectionPoint
from .targets import pick_target
from .wire import Arm, RANK_MODELS, WIRE_MODELS, resolve_stall_weight

#: Current (and only) scenario file format version.
SCENARIO_VERSION = 1

#: Models a scenario task may name: the parameter models plus every
#: wire/rank model ("scenario" itself cannot nest).
PARAM_TASK_MODELS = ("bitflip", "multibit")
TASK_MODELS = PARAM_TASK_MODELS + WIRE_MODELS + RANK_MODELS

#: Synthetic collective name anchoring scenario campaigns in the
#: existing (point, test) stream.
SCENARIO_COLLECTIVE = "Scenario"


class ScenarioError(ValueError):
    """A scenario file or task is malformed."""


@dataclass(frozen=True)
class ScenarioTask:
    """One timed fault task.

    ``t`` is the rank-local collective sequence index at (or after)
    which the task fires; the remaining knobs mirror
    :class:`~repro.injection.space.FaultSpec`.
    """

    t: int
    model: str
    rank: int
    param: str = ""
    bit: int | None = None
    width: int = 0
    count: int = 1
    weight: int = 0


@dataclass(frozen=True)
class Scenario:
    """A named, ordered timeline of fault tasks."""

    name: str
    tasks: tuple[ScenarioTask, ...]

    def fingerprint(self) -> str:
        """Stable content hash (folds into campaign digests)."""
        return hashlib.sha256(
            serialize_scenario(self).encode("utf-8")
        ).hexdigest()[:16]

    def anchor_point(self) -> InjectionPoint:
        """The synthetic injection point a scenario campaign runs under.

        Scenario tasks address ranks and times directly, so the
        campaign machinery needs exactly one point to thread the
        ``(point_index, test_index)`` seed stream through; its site
        carries the scenario name for reports and forensics.
        """
        return InjectionPoint(0, SCENARIO_COLLECTIVE, f"scenario:{self.name}", 0)


# -- parsing / serialization -------------------------------------------

_TASK_FIELDS = {f.name for f in fields(ScenarioTask)}
_TASK_DEFAULTS = {
    f.name: f.default for f in fields(ScenarioTask) if f.name not in ("t", "model", "rank")
}


def _check_task(raw: object, index: int) -> ScenarioTask:
    where = f"task {index}"
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(raw).__name__}")
    unknown = set(raw) - _TASK_FIELDS
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    for required in ("t", "model", "rank"):
        if required not in raw:
            raise ScenarioError(f"{where}: missing required key {required!r}")
    model = raw["model"]
    if model not in TASK_MODELS:
        raise ScenarioError(
            f"{where}: unknown model {model!r} (choices: {', '.join(TASK_MODELS)})"
        )
    for key in ("t", "rank", "width", "count", "weight"):
        value = raw.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ScenarioError(f"{where}: {key} must be a non-negative integer")
    if raw.get("count", 1) == 0:
        raise ScenarioError(f"{where}: count must be >= 1")
    bit = raw.get("bit")
    if bit is not None and (isinstance(bit, bool) or not isinstance(bit, int) or bit < 0):
        raise ScenarioError(f"{where}: bit must be null or a non-negative integer")
    param = raw.get("param", "")
    if not isinstance(param, str):
        raise ScenarioError(f"{where}: param must be a string")
    if param and not any(param in params for params in COLLECTIVE_PARAMS.values()):
        raise ScenarioError(f"{where}: {param!r} names no collective parameter")
    if param and model not in PARAM_TASK_MODELS:
        raise ScenarioError(f"{where}: param only applies to {'/'.join(PARAM_TASK_MODELS)}")
    return ScenarioTask(**{k: raw[k] for k in raw})


def parse_scenario(data: "str | bytes | dict") -> Scenario:
    """Parse a scenario document (JSON text or an already-decoded dict)."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"version", "name", "tasks"}
    if unknown:
        raise ScenarioError(f"unknown top-level keys {sorted(unknown)}")
    if data.get("version") != SCENARIO_VERSION:
        raise ScenarioError(
            f"unsupported scenario version {data.get('version')!r} "
            f"(expected {SCENARIO_VERSION})"
        )
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name must be a non-empty string")
    tasks = data.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ScenarioError("tasks must be a non-empty list")
    return Scenario(name, tuple(_check_task(raw, i) for i, raw in enumerate(tasks)))


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON for a scenario (round-trips through parse)."""
    tasks = []
    for task in scenario.tasks:
        raw: dict = {"t": task.t, "model": task.model, "rank": task.rank}
        for key, default in _TASK_DEFAULTS.items():
            value = getattr(task, key)
            if value != default:
                raw[key] = value
        tasks.append(raw)
    return json.dumps(
        {"version": SCENARIO_VERSION, "name": scenario.name, "tasks": tasks},
        sort_keys=True,
    )


def load_scenario(path: str) -> Scenario:
    """Parse a scenario file, mapping I/O errors to :class:`ScenarioError`."""
    try:
        # CLI-boundary file read, never reached from simulator fibers.
        with open(path, "r", encoding="utf-8") as fh:  # lint: allow(blocking-io)
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# -- execution ----------------------------------------------------------

class _ScenarioTap(DeliveryTap):
    """Aggregates the wire arms of every active scenario task.

    The first arm acting on a message wins — overlapping wire tasks on
    the same rank compose in timeline order.
    """

    def __init__(self) -> None:
        self.arms: list[Arm] = []
        self.pending_steps = 0

    def on_send(self, sender: int, call) -> list[bytes] | None:
        for arm in self.arms:
            payloads = arm.on_send(sender, call)
            if payloads is not None:
                return payloads
        return None


class ScenarioInjector(Instrument):
    """Drives one scenario timeline inside one simulated job.

    Each task fires once, at the first collective its rank enters with
    ``seq >= t``; tasks are checked in timeline order so overlapping
    tasks draw from the shared RNG deterministically.  ``record`` is
    the first fault that actually struck (``records`` has all of them),
    matching the single-fault result plumbing.
    """

    def __init__(self, spec: FaultSpec, rng: np.random.Generator, tracer=None):
        if spec.scenario is None:
            raise ValueError("scenario spec carries no scenario")
        self.spec = spec
        self.scenario: Scenario = spec.scenario
        self.rng = rng
        self.tracer = tracer
        self.tap = _ScenarioTap()
        self.records: list[InjectionRecord] = []
        self._pending = list(self.scenario.tasks)

    @property
    def record(self) -> InjectionRecord | None:
        return self.records[0] if self.records else None

    @property
    def fired(self) -> bool:
        return bool(self.records)

    def _collect(self, rec: InjectionRecord | None) -> None:
        if rec is not None:
            self.records.append(rec)

    def _fire_param(self, ctx, call: CollectiveCall, task: ScenarioTask) -> None:
        param = task.param or pick_target(self.rng, call.name, "all")
        if param not in COLLECTIVE_PARAMS[call.name]:
            # A pinned parameter the fired-at collective lacks: the
            # task lands as a skipped injection, not a harness error.
            self.records.append(
                InjectionRecord(
                    param, "scenario", -1, skipped=True,
                    collective=call.name, site=call.site,
                    invocation=call.invocation,
                )
            )
            return
        point = InjectionPoint(call.rank, call.name, call.site, call.invocation)
        if task.model == "multibit":
            sub: FaultInjector = BurstInjector(
                FaultSpec(point, param=param, bit=task.bit, model="multibit", width=task.width),
                self.rng,
                tracer=self.tracer,
            )
        else:
            sub = FaultInjector(
                FaultSpec(point, param=param, bit=task.bit),
                self.rng,
                tracer=self.tracer,
            )
        sub._inject(ctx, call)
        self._collect(sub.record)

    def _arm_wire(self, task: ScenarioTask) -> None:
        arm = Arm(
            task.model,
            task.rank,
            self.rng,
            width=task.width,
            count=task.count,
            on_fire=lambda a, detail, _task=task: self.records.append(
                InjectionRecord(
                    "payload", _task.model, -1,
                    collective=SCENARIO_COLLECTIVE,
                    site=f"scenario:{self.scenario.name}",
                    invocation=_task.t,
                    after=detail,
                )
            ),
        )
        arm.active = True
        self.tap.arms.append(arm)

    def on_collective(self, ctx, call: CollectiveCall) -> None:
        if not self._pending:
            return
        still_pending = []
        for task in self._pending:
            if call.rank != task.rank or call.seq < task.t:
                still_pending.append(task)
                continue
            if task.model in PARAM_TASK_MODELS:
                self._fire_param(ctx, call, task)
            elif task.model == "rank_stall":
                weight = resolve_stall_weight(task.weight, ctx.runtime.step_budget)
                self.tap.pending_steps += weight
                self.records.append(
                    InjectionRecord(
                        "rank", task.model, -1,
                        collective=call.name, site=call.site,
                        invocation=call.invocation,
                        after=f"rank {call.rank} stalled for {weight} steps",
                    )
                )
            elif task.model == "rank_crash":
                self.records.append(
                    InjectionRecord(
                        "rank", task.model, -1,
                        collective=call.name, site=call.site,
                        invocation=call.invocation,
                        after=f"rank {call.rank} failed entering {call.name}",
                    )
                )
                # The job aborts here; any remaining task is moot.
                self._pending = []
                raise MPIError(
                    "MPI_ERR_PROC_FAILED",
                    f"rank {call.rank} failed entering {call.name}",
                    rank=call.rank,
                )
            else:
                self._arm_wire(task)
        self._pending = still_pending
