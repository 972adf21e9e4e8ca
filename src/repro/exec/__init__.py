"""``repro.exec`` — the campaign execution engine (the only one).

A fault-injection campaign is a pure function of ``(app, nranks, seed,
config)``: every test rebuilds its RNG from ``SeedSequence(seed,
spawn_key=(point_index, test_index))``
(:func:`repro.injection.models.draw_task`).  That purity is what this
package exploits — work units of ``(point_index, test_range)`` can be
executed in this process (``jobs == 1``) or sharded across a process
pool in any order, on any number of workers, resumed from a store or
not, and the assembled
:class:`~repro.injection.campaign.CampaignResult` is bit-identical.

Layers:

* :mod:`repro.exec.sharding` — deterministic work-unit enumeration;
* :mod:`repro.exec.checkpoint` — the campaign digest, the identity a
  stored campaign is resumed by (the store itself is
  :mod:`repro.store`);
* :mod:`repro.exec.supervisor` — the unit executor
  (:class:`WorkerState`) and the fault-contained worker pool around it
  (death/wedge detection, respawn, retries, quarantine);
* :mod:`repro.exec.parallel` — :func:`run_campaign`, the body of
  ``Campaign.run`` (unit scheduling, executor choice, result streaming,
  metrics merging, quarantine synthesis, deterministic assembly).
"""

from .checkpoint import campaign_digest
from .parallel import run_campaign
from .sharding import WorkUnit, default_unit_tests, make_units, units_of_point
from .supervisor import SupervisedPool, SupervisorConfig, UnitFailedError, WorkerState

__all__ = [
    "SupervisedPool",
    "SupervisorConfig",
    "UnitFailedError",
    "WorkUnit",
    "WorkerState",
    "campaign_digest",
    "default_unit_tests",
    "make_units",
    "run_campaign",
    "units_of_point",
]
