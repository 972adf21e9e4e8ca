"""Configuration errors.

:class:`ConfigError` is what every option check raises
(:class:`~repro.injection.campaign.CampaignConfig` and the ``fastfit``
CLI's check subcommands).  The paper's tool reads its Table II
coordinates (NUM_INJ, INV_ID, CALL_ID, RANK_ID, PARAM_ID) from
environment variables; here a test's coordinates are its point and test
index (:func:`repro.injection.models.task_rng`), and every option is a
``CampaignConfig`` field.
"""

from __future__ import annotations

from typing import Mapping


class _Spelled(dict):
    """Format mapping that spells an unnamed option as itself."""

    def __missing__(self, key: str) -> str:
        return key


class ConfigError(ValueError):
    """Raised for malformed FastFIT configuration values.

    ``field`` names the offending option.  The message is a template
    over option names plus the keyword ``values``
    (``"{jobs} must be >= 1, got {value}"``): ``str(exc)`` spells each
    option as its name, :meth:`render` as the caller likes — the CLI
    passes each option's flag as the subcommand spells it, so it prints
    ``--jobs must be >= 1, got 0``."""

    def __init__(self, field: str, template: str, **values):
        self.field = field
        self.template = template
        self.values = values
        super().__init__(self.render({}))

    def render(self, names: Mapping[str, str]) -> str:
        """The message with every option ``o`` spelled ``names.get(o, o)``."""
        return self.template.format_map(_Spelled({**names, **self.values}))
