"""Benchmark harness utilities (tables, scaling, measurement)."""

from .report import bench_scale, format_table, output_dir, write_report
from .runner import Measurement, analyze_counts, clamp_percent, measure

__all__ = [
    "Measurement",
    "analyze_counts",
    "bench_scale",
    "clamp_percent",
    "format_table",
    "measure",
    "output_dir",
    "write_report",
]
