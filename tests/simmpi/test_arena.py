"""Arena backing store: private anonymous maps.

``Memory.raw`` is a numpy view of an anonymous ``MAP_PRIVATE`` map, so
an arena is zero pages until touched, is never memset, and is unmapped
when its ``Memory`` dies.  The fork test pins the ``MAP_PRIVATE``
requirement: under ``mmap``'s default ``MAP_SHARED`` a forked test's
writes land in the parent's parked arena.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.simmpi.memory import Memory

SRC = Path(__file__).resolve().parents[2] / "src"


def test_new_arena_is_zero_and_writable_over_its_whole_size():
    mem = Memory(rank=0, size=1 << 16)
    assert mem.raw.dtype == np.uint8 and mem.raw.shape == (1 << 16,)
    assert not mem.raw.any()
    mem.raw[:] = 0xAB
    assert mem.raw[0] == 0xAB and mem.raw[-1] == 0xAB


def test_non_page_multiple_size():
    mem = Memory(rank=0, size=4096 + 123)
    assert mem.raw.size == 4096 + 123
    seg = mem.alloc(4096 + 123)
    mem.write(seg.addr + 4096, bytes(range(123)))
    assert mem.read(seg.addr + 4096, 123) == bytes(range(123))
    assert not mem.in_arena(seg.addr, 4096 + 124)


def test_view_outlives_memory():
    view = Memory(rank=0, size=4096).raw[8:16]
    view[:] = 7
    assert view.tolist() == [7] * 8


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_write_is_invisible_to_parent():
    mem = Memory(rank=0, size=1 << 16)
    mem.raw[100] = 1
    pid = os.fork()
    if pid == 0:
        try:
            mem.raw[100] = 2
            mem.raw[5000] = 3
            os._exit(0 if mem.raw[100] == 2 else 1)
        finally:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert mem.raw[100] == 1 and mem.raw[5000] == 0


_RSS_SCRIPT = """
import resource
from repro.apps import make_app
from repro.injection import InjectionRunner, enumerate_points
from repro.injection.models import draw_task
from repro.profiling import profile_application

app = make_app("lu", "T")
profile = profile_application(app)
runner = InjectionRunner(app, profile)
point = enumerate_points(profile)[0]
marks = {}
for t in range(220):
    runner.run_one(*draw_task(point, 1, 0, t, policy="all"))
    if t + 1 in (20, 220):
        marks[t + 1] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(marks[20], marks[220])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_arenas_are_returned_not_accumulated():
    """200 more ``run_one`` calls after the first 20 move the resident
    high-water mark by < 8 MB: each job's arenas go back to the kernel."""
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    after_20, after_220 = int(out[0]), int(out[1])
    assert after_220 - after_20 < 8 * 1024, (after_20, after_220)
