"""Experiment harness: policy runs, figure/table data generators, reports.

Simulations run through :mod:`repro.api`; :mod:`.runner` is its internal
implementation."""

from .config import BenchConfig
from .runner import PolicyRun, RunOptions
from .tables import (
    TableComparison,
    render_table1,
    render_table2,
    table1_job_counts,
    table2_proc_hours,
)

__all__ = [
    "BenchConfig",
    "PolicyRun",
    "RunOptions",
    "TableComparison",
    "render_table1",
    "render_table2",
    "table1_job_counts",
    "table2_proc_hours",
]
