"""Ablation 2 — pointer-like handles vs small-integer handles.

DESIGN.md claims pointer-like MPI object handles (Open MPI style) drive
the SEG_FAULT-dominance of datatype/op/comm faults in Fig. 9; an
MPICH-style small-int handle world would detect corrupted handles at
validation and report MPI_ERR instead.

The small-int world is emulated with an instrument after the injector:
any corrupted handle value is replaced by an *in-extent* invalid handle,
which the library detects (MPI_ERR) rather than dereferencing into
unmapped memory.
"""

from collections import Counter

import common
import numpy as np

from repro.report.text import render_grouped_bars
from repro.injection import FaultInjector, FaultSpec, Outcome, enumerate_points
from repro.injection.outcome import OUTCOME_ORDER, classify_exception
from repro.simmpi import Instrument, SimMPIError
from repro.simmpi.handles import OBJECT_EXTENT

N_TESTS = 60


class SmallIntHandles(Instrument):
    """Map wild handle values back into the detectable range."""

    def __init__(self, runtime):
        self.spaces = {
            "datatype": runtime.type_space,
            "op": runtime.op_space,
            "comm": runtime.comm_factory.space,
        }

    def on_collective(self, ctx, call):
        for param, space in self.spaces.items():
            if param in call.args:
                handle = int(call.args[param])
                if not space.contains(handle):
                    # A small-int table lookup fails cleanly: emulate by
                    # an in-extent corrupted handle (detected -> MPI_ERR).
                    call.args[param] = space.handles()[0] + OBJECT_EXTENT // 2


def bench_ablation_handles(benchmark):
    app = common.get_app("lu")
    profile = common.get_profile("lu")
    golden = profile.golden_results
    budget = max(profile.golden_steps * 8, 50_000)
    point = next(p for p in enumerate_points(profile) if p.collective == "Allreduce")

    def run_both():
        mixes = {}
        for mode in ("pointer handles", "small-int handles"):
            outcomes = []
            for t in range(N_TESTS):
                rng = np.random.default_rng(2000 + t)
                param = ("datatype", "op", "comm")[t % 3]
                injector = FaultInjector(FaultSpec(point, param, None), rng)
                instruments = [injector]
                if mode == "small-int handles":
                    # Runtime-dependent; installed lazily per run below.
                    instruments.append(None)

                def run_once(instrs=instruments):
                    from repro.simmpi import SimMPI

                    rt = SimMPI(app.nranks, step_budget=budget)
                    real = [i for i in instrs if i is not None]
                    if None in instrs:
                        real.append(SmallIntHandles(rt))
                    try:
                        result = rt.run(app.main, instruments=real)
                    except SimMPIError as exc:
                        return classify_exception(exc)
                    return (
                        Outcome.SUCCESS
                        if app.compare(golden, result.results)
                        else Outcome.WRONG_ANS
                    )

                outcomes.append(run_once())
            counts = Counter(outcomes)
            mixes[mode] = {o.value: counts.get(o, 0) / N_TESTS for o in OUTCOME_ORDER}
        return mixes

    mixes = common.once(benchmark, run_both)
    print()
    print(
        render_grouped_bars(
            mixes, title="Ablation: handle-fault outcomes, pointer vs small-int handles"
        )
    )

    pointer = mixes["pointer handles"]
    smallint = mixes["small-int handles"]
    # Pointer handles: SEG_FAULT dominates (Fig. 9's shape).
    assert pointer["SEG_FAULT"] > pointer["MPI_ERR"]
    # Small-int handles: everything is detected as MPI_ERR instead.
    assert smallint["MPI_ERR"] > smallint["SEG_FAULT"]
    assert smallint["MPI_ERR"] >= 0.8
