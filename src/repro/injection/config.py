"""FastFIT runtime configuration (the paper's Table II).

The original tool is driven by environment variables read by its
``Config Generation`` module; this reproduction accepts the same
variables (``FASTFIT_`` prefixed) or explicit constructor arguments.

===========  =========  ===========================================
Abbreviation Width      Meaning
===========  =========  ===========================================
NUM_INJ      unlimited  Number of injected faults (tests to run)
INV_ID       3          Id of injected invocation
CALL_ID      3          Id of injected MPI collective call site
RANK_ID      unlimited  Id of injected rank
PARAM_ID     1          Id of injected parameter
===========  =========  ===========================================

Widths bound the decimal digits accepted from the environment, as in
the paper's table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

ENV_PREFIX = "FASTFIT_"

#: (name, max decimal width or None for unlimited)
_FIELDS: tuple[tuple[str, int | None], ...] = (
    ("NUM_INJ", None),
    ("INV_ID", 3),
    ("CALL_ID", 3),
    ("RANK_ID", None),
    ("PARAM_ID", 1),
)


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
    passes every campaign option's flag, so it prints ``--jobs must be
    >= 1, got 0``."""

    def __init__(self, field: str, template: str, **values):
        self.field = field
        self.template = template
        self.values = values
        super().__init__(self.render({}))

    def render(self, names: Mapping[str, str]) -> str:
        """The message with every option ``o`` spelled ``names.get(o, o)``."""
        return self.template.format_map(_Spelled({**names, **self.values}))


def _parse(name: str, raw: str, width: int | None) -> int:
    raw = raw.strip()
    if not raw.lstrip("-").isdigit():
        raise ConfigError(
            name.lower(), "{name} must be an integer, got {raw!r}", name=name, raw=raw
        )
    if width is not None and len(raw.lstrip("-")) > width:
        raise ConfigError(
            name.lower(), "{name} exceeds its width of {width} digits: {raw!r}",
            name=name, width=width, raw=raw,
        )
    return int(raw)


@dataclass(frozen=True)
class InjectionConfig:
    """One fault-injection test's coordinates (Table II).

    ``call_id`` indexes the profiled call-site list (sorted order);
    ``param_id`` indexes the collective's parameter tuple.
    """

    num_inj: int = 1
    inv_id: int = 0
    call_id: int = 0
    rank_id: int = 0
    param_id: int = 0

    def __post_init__(self):
        for label, value in (
            ("NUM_INJ", self.num_inj),
            ("INV_ID", self.inv_id),
            ("CALL_ID", self.call_id),
            ("RANK_ID", self.rank_id),
            ("PARAM_ID", self.param_id),
        ):
            if value < 0:
                raise ConfigError(
                    label.lower(), "{label} must be non-negative, got {value}",
                    label=label, value=value,
                )

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "InjectionConfig":
        """Build a config from ``FASTFIT_*`` environment variables."""
        env = os.environ if env is None else env
        values: dict[str, int] = {}
        for name, width in _FIELDS:
            raw = env.get(ENV_PREFIX + name)
            if raw is not None:
                values[name.lower()] = _parse(name, raw, width)
        return cls(**values)

    def to_env(self) -> dict[str, str]:
        """The equivalent environment-variable map."""
        return {
            ENV_PREFIX + "NUM_INJ": str(self.num_inj),
            ENV_PREFIX + "INV_ID": str(self.inv_id),
            ENV_PREFIX + "CALL_ID": str(self.call_id),
            ENV_PREFIX + "RANK_ID": str(self.rank_id),
            ENV_PREFIX + "PARAM_ID": str(self.param_id),
        }
