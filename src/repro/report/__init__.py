"""Rendering: the ASCII tables and bars every subcommand and benchmark
prints (:mod:`repro.report.text`), and the static HTML campaign reports
built from the SQLite store (``fastfit report --db campaigns.sqlite
--out report/`` → :func:`build_report`).
"""

from .builder import SECTIONS, build_report

__all__ = ["SECTIONS", "build_report"]
