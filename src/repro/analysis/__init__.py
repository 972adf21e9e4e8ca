"""``repro.analysis`` — sensitivity levels, statistics, propagation,
significance, reporting, and result export."""

from .export import (
    campaign_to_csv,
    campaign_to_dict,
    campaign_to_json,
    metrics_to_json,
    point_to_dict,
)
from .propagation import PropagationResult, propagation_study, tainted_ranks
from .reports import render_bars, render_grouped_bars, render_histogram, render_table
from .sensitivity import (
    EVEN_2_LEVELS,
    EVEN_3_LEVELS,
    PAPER_3_LEVELS,
    QUARTILE_LEVELS,
    LevelScheme,
    level_distribution,
)
from .significance import (
    RateInterval,
    convergence_trace,
    level_stability,
    required_tests,
    wilson_interval,
)
from .stats import GaussianFit, fit_error_rates, histogram

__all__ = [
    "EVEN_2_LEVELS",
    "PropagationResult",
    "RateInterval",
    "campaign_to_csv",
    "campaign_to_dict",
    "campaign_to_json",
    "convergence_trace",
    "level_stability",
    "metrics_to_json",
    "point_to_dict",
    "propagation_study",
    "required_tests",
    "tainted_ranks",
    "wilson_interval",
    "EVEN_3_LEVELS",
    "GaussianFit",
    "LevelScheme",
    "PAPER_3_LEVELS",
    "QUARTILE_LEVELS",
    "fit_error_rates",
    "histogram",
    "level_distribution",
    "render_bars",
    "render_grouped_bars",
    "render_histogram",
    "render_table",
]
