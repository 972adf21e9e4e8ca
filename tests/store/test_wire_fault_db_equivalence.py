"""Serial, ``--jobs 4`` and killed-then-resumed wire-fault campaigns
commit identical ``results`` rows, and the killed-then-resumed database
gives back the serial run's tests whole.

Every wire-fault test takes the snapshot engine's full-replay fallback,
and its stored row carries the model name, so this is the store's
equivalence check for the non-bit-flip fault models.  The killed run is
a real process, SIGKILLed together with its pool workers (its own
process group) once it has recorded a unit.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

from repro import FastFIT
from repro.cli import main

SRC = Path(__file__).resolve().parents[2] / "src"

CLI = [
    "campaign", "--app", "is", "--problem-class", "T", "--tests", "8",
    "--max-points", "6", "--fault-model", "msg_corrupt",
]


def rows(db):
    try:
        conn = sqlite3.connect(db)
        try:
            return conn.execute(
                "SELECT point_index, test_index, rank, collective, site, "
                "invocation, param, bit, model, outcome, injected, detail "
                "FROM results ORDER BY point_index, test_index"
            ).fetchall()
        finally:
            conn.close()
    except sqlite3.OperationalError:
        return []


def test_serial_parallel_and_resumed_rows_identical(tmp_path, capsys):
    serial, par, resumed = (str(tmp_path / f"{n}.sqlite") for n in ("serial", "par", "resumed"))
    assert main([*CLI, "--db", serial]) == 0
    assert main([*CLI, "--db", par, "--jobs", "4"]) == 0

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *CLI, "--db", resumed, "--jobs", "4"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.time() + 60
    while time.time() < deadline and proc.poll() is None and not rows(resumed):
        time.sleep(0.05)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the campaign finished first; the resume fast-forwards
    proc.wait()
    assert main([*CLI, "--db", resumed, "--jobs", "4", "--resume"]) == 0

    serial_rows = rows(serial)
    assert serial_rows, "serial campaign recorded no rows"
    assert serial_rows == rows(par) == rows(resumed), "serial/parallel/resumed rows differ"
    assert {r[8] for r in serial_rows} == {"msg_corrupt"}

    # The same campaign in memory, and rebuilt from the resumed database
    # by one more resume, which executes nothing: whole tests, record
    # fields and detail included.
    def tests(**store):
        ff = FastFIT.for_app(
            "is", "T", tests_per_point=8, max_points=6, fault_model="msg_corrupt", **store
        )
        return ff.campaign().all_tests(), ff.metrics.counter("exec.units").value

    in_memory, _ = tests()
    rebuilt, executed = tests(db_path=resumed, resume=True)
    assert executed == 0
    assert rebuilt == in_memory
    assert any(t.record is not None and t.record.after for t in rebuilt)
