"""Bring your own workload: write an Application and study it.

Shows the full surface a downstream user touches to study their own
code: the generator-style SPMD programming model of ``repro.simmpi``,
the :class:`~repro.apps.base.Application` contract (phases, ``check_``
error-handling convention, golden comparison), and the FastFIT pipeline
on top.

The example app is a distributed dot-product solver: scatter chunks of
two vectors from rank 0, allreduce partial dot products, iterate with a
relaxation update, and gather the result — touching Scatter, Allreduce,
Gather, and Barrier.

Usage::

    python examples/custom_app.py
"""

from typing import Any, Generator

import numpy as np

from repro import FastFIT
from repro.report.text import render_bars
from repro.apps.base import Application
from repro.simmpi import Context


class DotSolver(Application):
    """Iterative distributed dot-product relaxation."""

    name = "dotsolver"
    rtol = 1e-9

    @classmethod
    def class_params(cls, problem_class: str) -> dict[str, Any]:
        return {
            "T": dict(nranks=4, chunk=64, iterations=5, seed=3),
            "S": dict(nranks=16, chunk=128, iterations=8, seed=3),
            "A": dict(nranks=32, chunk=512, iterations=12, seed=3),
        }[problem_class]

    def check_partial(self, ctx: Context, value: float, out) -> Generator:
        """Error-handling collective (the ``check_`` convention makes it
        visible to the ErrHal feature)."""
        flag = ctx.alloc(1, ctx.INT, "dot.flag")
        gflag = ctx.alloc(1, ctx.INT, "dot.gflag")
        flag.view[0] = 0 if np.isfinite(value) else 1
        yield from ctx.Allreduce(flag.addr, gflag.addr, 1, ctx.INT, ctx.MAX, ctx.WORLD)
        if int(gflag.view[0]):
            ctx.app_error("dot product went non-finite")

    def main(self, ctx: Context) -> Generator:
        p = self.params
        chunk, iterations = p["chunk"], p["iterations"]
        n = ctx.size

        ctx.set_phase("input")
        full_x = ctx.alloc(chunk * n, ctx.DOUBLE, "dot.fullx")
        full_y = ctx.alloc(chunk * n, ctx.DOUBLE, "dot.fully")
        if ctx.rank == 0:
            rng = np.random.default_rng(p["seed"])
            full_x.view[:] = rng.standard_normal(chunk * n)
            full_y.view[:] = rng.standard_normal(chunk * n)

        ctx.set_phase("init")
        x = ctx.alloc(chunk, ctx.DOUBLE, "dot.x")
        y = ctx.alloc(chunk, ctx.DOUBLE, "dot.y")
        yield from ctx.Scatter(full_x.addr, chunk, x.addr, chunk, ctx.DOUBLE, 0, ctx.WORLD)
        yield from ctx.Scatter(full_y.addr, chunk, y.addr, chunk, ctx.DOUBLE, 0, ctx.WORLD)
        yield from ctx.Barrier(ctx.WORLD)

        ctx.set_phase("compute")
        partial = ctx.alloc(1, ctx.DOUBLE, "dot.partial")
        total = ctx.alloc(1, ctx.DOUBLE, "dot.total")
        dot = 0.0
        for _ in range(iterations):
            yield from ctx.progress(chunk // 16 + 1)
            partial.view[0] = float(x.view @ y.view)
            yield from ctx.Allreduce(
                partial.addr, total.addr, 1, ctx.DOUBLE, ctx.SUM, ctx.WORLD
            )
            dot = float(total.view[0])
            yield from self.check_partial(ctx, dot, total)
            # Relaxation: nudge x toward y scaled by the global dot.
            x.view[:] = 0.9 * x.view + 0.1 * np.tanh(dot) * y.view

        ctx.set_phase("end")
        result = ctx.alloc(chunk * n, ctx.DOUBLE, "dot.result")
        yield from ctx.Gather(x.addr, chunk, result.addr, chunk, ctx.DOUBLE, 0, ctx.WORLD)
        signature = float(result.view.sum()) if ctx.rank == 0 else None
        return {"dot": dot, "gathered_sum": signature}


def main() -> None:
    app = DotSolver.from_problem_class("T")
    ff = FastFIT(app, tests_per_point=12, param_policy="all")

    pruning = ff.prune()
    print(
        f"{app.describe()}: {pruning.total_points} points -> "
        f"{len(pruning.representative_points)} representatives"
    )

    campaign = ff.campaign()
    print()
    print(render_bars(
        {o.value: f for o, f in campaign.outcome_fractions().items()},
        title="response types for the custom app",
    ))
    print()
    print(ff.run(threshold=None).describe())


if __name__ == "__main__":
    main()
