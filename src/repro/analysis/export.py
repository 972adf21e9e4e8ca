"""Result serialisation: campaigns and reports to JSON/CSV.

A fault-injection campaign on a production machine is expensive; its
results should outlive the Python session.  These helpers produce
stable, diff-friendly artefacts (sorted keys, one record per point).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

from ..injection.campaign import CampaignResult
from ..injection.outcome import OUTCOME_ORDER
from ..injection.space import InjectionPoint
from ..obs.metrics import MetricsRegistry


def point_to_dict(point: InjectionPoint) -> dict[str, Any]:
    return {
        "rank": point.rank,
        "collective": point.collective,
        "site": point.site,
        "invocation": point.invocation,
    }


def campaign_to_dict(campaign: CampaignResult) -> dict[str, Any]:
    """A JSON-ready representation of a campaign (per-point outcome
    histograms plus one representative failure detail per outcome;
    individual test records are summarised, not dumped)."""
    return {
        "app": campaign.app_name,
        "tests_per_point": campaign.tests_per_point,
        "param_policy": campaign.param_policy,
        "points": [
            {
                **point_to_dict(point),
                "n_tests": pr.n_tests,
                "error_rate": pr.error_rate,
                "outcomes": {o.value: pr.outcomes.get(o, 0) for o in OUTCOME_ORDER},
                "details": {
                    o.value: d for o, d in sorted(pr.detail_samples().items())
                },
            }
            for point, pr in sorted(campaign.points.items())
        ],
    }


def campaign_to_json(campaign: CampaignResult, indent: int = 2) -> str:
    return json.dumps(campaign_to_dict(campaign), indent=indent, sort_keys=True)


def campaign_to_csv(campaign: CampaignResult) -> str:
    """One CSV row per injection point."""
    buf = io.StringIO()
    fields = [
        "rank",
        "collective",
        "site",
        "invocation",
        "n_tests",
        "error_rate",
        *[o.value for o in OUTCOME_ORDER],
    ]
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for point, pr in sorted(campaign.points.items()):
        row = {
            **point_to_dict(point),
            "n_tests": pr.n_tests,
            "error_rate": f"{pr.error_rate:.6f}",
        }
        for o in OUTCOME_ORDER:
            row[o.value] = pr.outcomes.get(o, 0)
        writer.writerow(row)
    return buf.getvalue()


def metrics_to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    """Serialise a metrics registry (counters, gauges, timers,
    histograms) as stable JSON."""
    return json.dumps(registry.to_dict(), indent=indent, sort_keys=True)
