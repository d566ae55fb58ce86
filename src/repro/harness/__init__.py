"""Experiment harness: table/figure drivers and result emitters."""

from .emit import result_from_csv, result_to_csv, result_to_markdown, series_to_csv
from .experiments import DEFAULT_CACHE_PATH, TableHarness, effective_sizes

__all__ = [
    "TableHarness",
    "DEFAULT_CACHE_PATH",
    "effective_sizes",
    "result_to_csv",
    "result_from_csv",
    "result_to_markdown",
    "series_to_csv",
]
