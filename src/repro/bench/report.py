"""Table formatting for the benchmark harness.

Every benchmark writes a paper-shaped text table to
``benchmarks/out/`` so runs can be diffed against the numbers reported
in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str = "",
) -> str:
    """Fixed-width table with a title line, like the paper's tables."""
    widths = [len(h) for h in headers]
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines) + "\n"


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def output_dir() -> str:
    """benchmarks/out/ next to the benchmark files (created on demand)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__))))
    path = os.path.join(here, "benchmarks", "out")
    os.makedirs(path, exist_ok=True)
    return path


def write_report(filename: str, content: str) -> str:
    """Write a table into benchmarks/out/ and return its path."""
    path = os.path.join(output_dir(), filename)
    with open(path, "w") as handle:
        handle.write(content)
    return path


def bench_scale(default: float = 0.15) -> float:
    """Suite scale factor; override with REPRO_BENCH_SCALE=1.0 for
    paper-sized programs (slow on CPython)."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", default))
    except ValueError:
        return default
