"""Campaign identity: the digest a stored campaign is keyed by.

An interrupted campaign should restart where it left off — but only if
it is *the same campaign*.  :func:`campaign_digest` hashes everything a
campaign's results are a function of (application identity and
parameters, rank count, seed, tests per point, target policy, unit
layout, the exact point list, algorithm selection, and the code
version).  The campaign database (:mod:`repro.store`) keys campaign
rows by it, so resuming a changed configuration starts a new row
instead of reusing another campaign's units.
"""

from __future__ import annotations

import hashlib
import json

from .. import __version__
from ..apps.base import Application
from ..injection.space import InjectionPoint


def campaign_digest(
    app: Application,
    seed: int,
    tests_per_point: int,
    param_policy: str,
    unit_tests: int,
    points: list[InjectionPoint],
    algorithms: dict[str, str] | None = None,
    code_version: str = __version__,
    layout: str = "p1",
    fault_model: str = "bitflip",
    scenario_fp: str | None = None,
    extra: dict | None = None,
) -> str:
    """Hash of everything the campaign's results are a function of.

    ``layout`` is the unit-layout version tag
    (:data:`repro.exec.sharding.LAYOUTS`).  The classic point-major
    layout (``"p1"``) is deliberately omitted from the payload so every
    digest computed before the tag existed stays byte-identical —
    pre-existing stored campaigns keep resuming.  The same omit-when-default
    rule applies to ``fault_model`` (``"bitflip"``), ``scenario_fp``
    (``None``), and ``extra`` (``None``): single-bit campaigns digest
    exactly as they always have.

    ``extra`` is a JSON-serialisable dict for drivers whose results
    depend on more than the plain campaign axes — the adaptive steering
    loop hashes its batching/stopping parameters here so a resumed
    steering run never joins a differently-steered campaign's row.
    """
    fields = {
        "app": app.name,
        "params": {k: repr(v) for k, v in sorted(app.params.items())},
        "nranks": app.nranks,
        "seed": seed,
        "tests_per_point": tests_per_point,
        "param_policy": param_policy,
        "unit_tests": unit_tests,
        "points": [
            [p.rank, p.collective, p.site, p.invocation] for p in points
        ],
        "algorithms": dict(sorted((algorithms or {}).items())),
        "code_version": code_version,
    }
    if layout != "p1":
        fields["layout"] = layout
    if fault_model != "bitflip":
        fields["fault_model"] = fault_model
    if scenario_fp is not None:
        fields["scenario"] = scenario_fp
    if extra:
        fields["extra"] = extra
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
