"""Result containers, aggregation over seeds and text-table formatting.

:mod:`repro.analysis.paper` (the paper's reported numbers, read by the
benchmarks) loads on first access.
"""

import importlib

from repro.analysis.io import load_results, save_results
from repro.analysis.results import RunResult, SeedSummary, summarize_runs
from repro.analysis.tables import format_series, format_table

__all__ = [
    "RunResult",
    "SeedSummary",
    "summarize_runs",
    "format_table",
    "format_series",
    "paper",
    "save_results",
    "load_results",
]


def __getattr__(name: str):
    """Import :mod:`repro.analysis.paper` on first access (PEP 562)."""
    if name != "paper":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.paper")
