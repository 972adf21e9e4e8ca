"""Multi-bit burst faults.

A burst flips ``width`` *adjacent* bits of one parameter — the DAVOS
"multiplicity > 1" faultload shape, modelling the spatial correlation of
real upsets (a particle strike or a stuck byte lane corrupts neighbouring
bits, not independent random ones).  The burst wraps within the
parameter's own bit extent so a late base bit still yields ``width``
flips.  :class:`~repro.injection.injector.FaultInjector` fires it; this
module holds the width draw.
"""

from __future__ import annotations

import numpy as np

#: Burst width range when the spec does not pin one: 2..8 adjacent bits.
MIN_WIDTH = 2
MAX_WIDTH = 8


def draw_width(rng: np.random.Generator) -> int:
    """Uniform burst width in [MIN_WIDTH, MAX_WIDTH]."""
    return int(rng.integers(MIN_WIDTH, MAX_WIDTH + 1))
