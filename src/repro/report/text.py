"""Text renderers: the ASCII tables and bars of the CLI and benchmarks.

Every ``fastfit`` subcommand and every benchmark regenerating a paper
table/figure prints through these, so the output reads like the paper's
evaluation section (:mod:`repro.report.html` renders the HTML report).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """A fixed-width ASCII table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(
    data: Mapping[str, float], width: int = 40, title: str = "", unit: str = "%"
) -> str:
    """Horizontal bar chart over label → value (values in [0, 1] render
    as percentages by default)."""
    lines = [title] if title else []
    scale = 100.0 if unit == "%" else 1.0
    label_w = max((len(k) for k in data), default=0)
    vmax = max((v for v in data.values()), default=1.0) or 1.0
    for label, value in data.items():
        bar = "#" * int(round(width * value / vmax))
        lines.append(f"{label.ljust(label_w)} | {bar} {value * scale:.1f}{unit}")
    return "\n".join(lines)


def render_grouped_bars(
    groups: Mapping[str, Mapping[str, float]], title: str = ""
) -> str:
    """Stacked summary per group: one table row per group, one column
    per series (the Figs. 7/8/10/11 layout)."""
    series = sorted({s for g in groups.values() for s in g})
    rows = [
        [group] + [f"{groups[group].get(s, 0.0) * 100:.1f}%" for s in series]
        for group in groups
    ]
    return render_table(["group"] + series, rows, title=title)


def render_histogram(
    edges: Sequence[float], counts: Sequence[int], title: str = "", width: int = 40
) -> str:
    """Binned histogram with one line per bin (the Fig. 3 layout)."""
    lines = [title] if title else []
    cmax = max(max(counts, default=0), 1)
    for lo, hi, c in zip(edges, edges[1:], counts):
        bar = "#" * int(round(width * c / cmax))
        lines.append(f"{lo:5.1f}-{hi:5.1f}% | {bar} {c}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
