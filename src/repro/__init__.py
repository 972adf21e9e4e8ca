"""FastFIT reproduction: fast fault injection and sensitivity analysis
for collective communications (Feng et al., IEEE CLUSTER 2015).

Public entry points:

* :class:`repro.FastFIT` — the end-to-end tool facade;
* :mod:`repro.simmpi` — the simulated MPI substrate;
* :mod:`repro.apps` — the NPB-shaped kernels and mini-LAMMPS workloads;
* :mod:`repro.profiling`, :mod:`repro.injection`, :mod:`repro.pruning`,
  :mod:`repro.ml`, :mod:`repro.analysis` — the component layers;
* :mod:`repro.exec` — the parallel, resumable campaign engine;
* :mod:`repro.obs` — tracing, metrics, forensics, progress telemetry;
* :mod:`repro.store` — the SQLite campaign store behind ``--db``;
* :mod:`repro.report` — the static HTML campaign report builder.
"""

__version__ = "1.0.0"

from . import analysis, apps, injection, ml, obs, profiling, pruning, simmpi
from . import exec as exec_  # noqa: F401 - also importable as repro.exec
from . import report, store
from .fastfit import FastFIT, FastFITReport, PruningReport
from .injection.campaign import CampaignConfig

__all__ = [
    "CampaignConfig",
    "FastFIT",
    "FastFITReport",
    "PruningReport",
    "analysis",
    "apps",
    "injection",
    "ml",
    "obs",
    "profiling",
    "pruning",
    "report",
    "simmpi",
    "store",
    "__version__",
]
