"""The learning loop: batched injection, steered or in seeded order.

Three cooperating pieces, each independently usable:

* :mod:`repro.steer.stopping` — :class:`SequentialStopper`, the Wilson
  interval early exit that truncates a point's test stream once its
  outcome histogram has converged.  Plugs into any
  :class:`~repro.injection.campaign.Campaign` via ``stopper=``.
* :mod:`repro.steer.sampler` — the samplers: the seeded ``"order"``
  (the paper's § III-C loop, ``FastFIT.learn``) and uncertainty
  scoring with deterministic batch selection over the unexplored
  point space (``FastFIT.steer``).
* :mod:`repro.steer.driver` — :func:`adaptive_campaign`, the one
  inject → verify → retrain loop combining both with the
  random-forest learner, store, and parallel engine.

Everything here is deterministic: trajectories are pure functions of
``(app, points, config)`` and bit-identical across serial, ``--jobs N``,
and killed-and-resumed executions.
"""

from .driver import SteeringResult, SteeringRound, adaptive_campaign
from .sampler import SAMPLER_MODES, select_batch, uncertainty_scores
from .stopping import (
    DEFAULT_Z,
    SequentialStopper,
    tests_to_close,
    wilson_interval,
    wilson_width,
)

__all__ = [
    "DEFAULT_Z",
    "SAMPLER_MODES",
    "SequentialStopper",
    "SteeringResult",
    "SteeringRound",
    "adaptive_campaign",
    "select_batch",
    "tests_to_close",
    "uncertainty_scores",
    "wilson_interval",
    "wilson_width",
]
