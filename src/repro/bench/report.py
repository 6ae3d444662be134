"""Paper-style result tables for the benchmark scripts.

Tables only go to stdout: a benchmark number lives in
``benchmarks/gates.json`` (see :mod:`repro.bench.gate`), not in a report file.
"""

from __future__ import annotations

from typing import Dict, Sequence

__all__ = ["format_table", "format_graph", "emit"]


def emit(text: str) -> None:
    """Print one table, set off by a blank line."""
    print()
    print(text)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Render an ASCII table."""
    columns = [str(h) for h in headers]
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(columns)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell >= 100:
            return f"{cell:.0f}"
        if cell >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)


def format_graph(
    title: str,
    curves: Dict[str, Dict],
    metric: str = "latency_ms",
    x_label: str = "clients",
) -> str:
    """Render one paper graph as a table: x vs one column per curve.

    ``curves`` maps a label to a :func:`~repro.bench.harness.sweep` result.
    """
    xs = sorted({x for curve in curves.values() for x in curve})
    rows = [
        [x] + [curve[x][metric] if x in curve else "-" for curve in curves.values()]
        for x in xs
    ]
    unit = "latency (ms)" if metric == "latency_ms" else "throughput (/s)"
    return format_table([x_label, *curves], rows, title=f"{title} — {unit}")
