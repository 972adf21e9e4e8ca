"""A pinned bit outside its parameter is a skipped injection.

``FaultSpec.bit`` may be pinned (``fastfit trace --bit``, a scenario
task's ``"bit"``).  A bit at or past the parameter's width — 32 for a
scalar, 64 for a handle, 32 per vector element, 64 per handle-vector
element, 8 per buffer byte — lands as a skipped injection and the job
runs clean, under the single-bit and the burst injector alike.
"""

import numpy as np
import pytest

from repro.injection import FaultSpec, InjectionPoint
from repro.injection.models import build_injector
from repro.profiling import CommProfiler
from repro.simmpi import SimMPIError, run_app


def two_collective_app(ctx):
    """An Allreduce of two doubles, then an Alltoallw of one int per peer."""
    n = ctx.size
    s = ctx.alloc(2, ctx.DOUBLE)
    r = ctx.alloc(2, ctx.DOUBLE)
    s.view[:] = ctx.rank + 1.0
    yield from ctx.Allreduce(s.addr, r.addr, 2, ctx.DOUBLE, ctx.SUM, ctx.WORLD)
    counts = np.ones(n, dtype=np.int64)
    displs = np.arange(n, dtype=np.int64) * 4
    types = [ctx.INT] * n
    sbuf = ctx.alloc(4 * n, ctx.BYTE)
    rbuf = ctx.alloc(4 * n, ctx.BYTE)
    sbuf.view.view(np.int32)[:] = ctx.rank
    yield from ctx.Alltoallw(
        sbuf.addr, counts, displs, types, rbuf.addr, counts, displs, types, ctx.WORLD
    )
    return [float(v) for v in r.view] + [int(v) for v in rbuf.view.view(np.int32)]


NRANKS = 2

#: (collective, param, parameter kind, width in bits) on NRANKS ranks.
CASES = [
    ("Allreduce", "count", "scalar", 32),
    ("Allreduce", "op", "handle", 64),
    ("Allreduce", "sendbuf", "buffer", 2 * 8 * 8),
    ("Alltoallw", "sdispls", "vector", NRANKS * 32),
    ("Alltoallw", "sendtypes", "handle_vector", NRANKS * 64),
]


@pytest.fixture(scope="module")
def golden():
    prof = CommProfiler()
    run = run_app(two_collective_app, NRANKS, instruments=[prof])
    points = {
        c.name: InjectionPoint(0, c.name, c.site, c.invocation)
        for c in prof.profile.calls
        if c.rank == 0
    }
    return points, run.results


def inject(point, param, bit, model):
    injector = build_injector(
        FaultSpec(point, param, bit, model=model, width=2), np.random.default_rng(0)
    )
    try:
        results = run_app(two_collective_app, NRANKS, instruments=[injector]).results
    except SimMPIError:
        results = None
    return injector.record, results


@pytest.mark.parametrize("model", ["bitflip", "multibit"])
@pytest.mark.parametrize("collective,param,kind,width", CASES)
def test_pinned_bit_past_the_width_is_skipped(golden, model, collective, param, kind, width):
    points, clean = golden
    for bit in (width, width + 1000):
        record, results = inject(points[collective], param, bit, model)
        assert (record.kind, record.bit, record.skipped) == (kind, bit, True)
        assert results == clean


@pytest.mark.parametrize("model", ["bitflip", "multibit"])
@pytest.mark.parametrize("collective,param,kind,width", CASES)
def test_last_bit_inside_the_width_fires(golden, model, collective, param, kind, width):
    points, _ = golden
    record, _ = inject(points[collective], param, width - 1, model)
    assert (record.kind, record.bit, record.skipped) == (kind, width - 1, False)
