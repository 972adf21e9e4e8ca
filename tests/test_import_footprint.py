"""Import-graph guard: what ``import repro`` maps, every ``fastfit``
command, pool worker and forked test pays for.  ``numpy`` is the only
runtime dependency; module names only — no wall-clock thresholds here.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BANNED = {"scipy", "networkx", "matplotlib", "pandas"}


def test_import_repro_loads_no_heavy_packages():
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.verify, repro.analyze, repro.steer\n"
        "print(' '.join(sorted({m.partition('.')[0] for m in sys.modules})))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    loaded = set(out.split())
    assert "repro" in loaded and "numpy" in loaded
    assert not BANNED & loaded
