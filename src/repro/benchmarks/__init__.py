"""Benchmark suites and the harness that regenerates the paper's evaluation.

* :func:`r_benchmark_suite` -- the 80 data-preparation tasks (categories
  C1-C9 of Figure 16).
* :func:`sql_benchmark_suite` -- the 28 SQL-expressible tasks of Figure 18.
* :mod:`repro.benchmarks.runner` -- runs suites under the paper's
  configurations and aggregates Figure 16 / 17 / 18 data.
* ``python -m repro.benchmarks.cli`` -- command-line regeneration.
"""

from .r_suite import CATEGORY_COUNTS, CATEGORY_DESCRIPTIONS, r_benchmark_suite
from .runner import (
    BenchmarkOutcome,
    Figure18Row,
    SuiteRun,
    run_benchmark,
    run_figure16,
    run_figure17,
    run_figure18,
    run_pairs,
    run_pruning_statistics,
    run_suite,
)
from .reporting import (
    deduction_summary_table,
    execution_summary_table,
    figure16_table,
    figure17_series,
    figure17_table,
    figure18_table,
    outcome_record,
    search_summary_table,
    suite_runs_json,
)
from .sql_suite import sql_benchmark_suite
from .suite import Benchmark, BenchmarkSuite

__all__ = [
    "Benchmark",
    "BenchmarkOutcome",
    "BenchmarkSuite",
    "CATEGORY_COUNTS",
    "CATEGORY_DESCRIPTIONS",
    "Figure18Row",
    "SuiteRun",
    "deduction_summary_table",
    "execution_summary_table",
    "figure16_table",
    "figure17_series",
    "figure17_table",
    "figure18_table",
    "outcome_record",
    "r_benchmark_suite",
    "search_summary_table",
    "suite_runs_json",
    "run_benchmark",
    "run_figure16",
    "run_figure17",
    "run_figure18",
    "run_pairs",
    "run_pruning_statistics",
    "run_suite",
    "sql_benchmark_suite",
]
