"""Fault targets: which parameter of a collective gets the bit flip.

The paper injects into "the input parameters of the collective
interface": the send/receive data buffers, element counts, datatype,
reduction op, root, and communicator.  Buffer *addresses* are never
flipped (the outcome is trivially catastrophic, § II).

``param_policy`` strings used throughout the campaign layer:

* ``"buffer"`` — the paper's default for the sensitivity studies
  ("we inject faults into the data buffer … if there is any data
  buffer"); collectives without one (Barrier) fall back to their full
  parameter list.
* ``"all"`` — uniform over every parameter (the Fig. 7 style general
  campaigns and the Fig. 9 per-parameter study).
* a specific parameter name (``"count"``, ``"op"``, …) — the Fig. 9
  per-parameter sweeps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..simmpi import (
    BUFFER_PARAMS,
    COLLECTIVE_PARAMS,
    HANDLE_PARAMS,
    HANDLE_VECTOR_PARAMS,
    SCALAR_PARAMS,
    VECTOR_PARAMS,
)
from .config import ConfigError

if TYPE_CHECKING:
    from .space import InjectionPoint


def buffer_targets(collective: str) -> tuple[str, ...]:
    """The data-buffer parameters of a collective (may be empty)."""
    return tuple(p for p in COLLECTIVE_PARAMS[collective] if p in BUFFER_PARAMS)


def all_targets(collective: str) -> tuple[str, ...]:
    return COLLECTIVE_PARAMS[collective]


def is_policy(policy: str) -> bool:
    """Whether ``policy`` is ``"all"``, ``"buffer"``, or a parameter of
    some collective."""
    return policy in ("all", "buffer") or any(
        policy in params for params in COLLECTIVE_PARAMS.values()
    )


def select_points(
    points: Sequence[InjectionPoint], policy: str, app: str
) -> list[InjectionPoint]:
    """The points a run under ``policy`` covers: every point for
    ``"all"``/``"buffer"``, else the points whose collective has the
    named parameter, as the paper's per-parameter sweeps do.  A policy
    that leaves none of ``app``'s points raises :class:`ConfigError`."""
    having = [p for p in points if policy in ("all", "buffer", *all_targets(p.collective))]
    if points and not having:
        raise ConfigError(
            "param_policy", "{param_policy} {value!r} names no parameter of a collective {app} "
            "calls ({collectives})", value=policy, app=app,
            collectives=", ".join(sorted({p.collective for p in points})),
        )
    return having


def targets_for_policy(collective: str, policy: str) -> tuple[str, ...]:
    """Resolve a policy string to the concrete parameter tuple."""
    if policy == "all":
        return all_targets(collective)
    if policy == "buffer":
        bufs = buffer_targets(collective)
        return bufs if bufs else all_targets(collective)
    if policy in COLLECTIVE_PARAMS[collective]:
        return (policy,)
    raise ValueError(
        f"policy {policy!r} does not name a parameter of {collective} "
        f"(has {COLLECTIVE_PARAMS[collective]})"
    )


def pick_target(
    rng: np.random.Generator, collective: str, policy: str
) -> str:
    """Randomly choose the parameter to corrupt for one test."""
    candidates = targets_for_policy(collective, policy)
    return candidates[int(rng.integers(0, len(candidates)))]


def param_kind(param: str) -> str:
    """Machine representation of a parameter: buffer/scalar/handle/vector."""
    if param in BUFFER_PARAMS:
        return "buffer"
    if param in SCALAR_PARAMS:
        return "scalar"
    if param in HANDLE_PARAMS:
        return "handle"
    if param in VECTOR_PARAMS:
        return "vector"
    if param in HANDLE_VECTOR_PARAMS:
        return "handle_vector"
    raise ValueError(f"unknown parameter {param!r}")
