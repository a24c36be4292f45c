"""Text reports that mirror the paper's tables and figures."""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from ..api import sum_counters
from .r_suite import CATEGORY_COUNTS, CATEGORY_DESCRIPTIONS
from .runner import Figure18Row, SuiteRun


def _format_time(value: Optional[float]) -> str:
    if value is None:
        return "timeout"
    return f"{value:.2f}"


def figure16_table(runs: Dict[str, SuiteRun]) -> str:
    """Render the Figure 16 summary table.

    One row per category (C1..C9) plus a Total row; for every configuration
    the number of solved benchmarks and the median time over solved
    benchmarks (the paper reports medians the same way, with a timeout marker
    when nothing in the category was solved).
    """
    labels = list(runs.keys())
    categories = sorted({outcome.category for run in runs.values() for outcome in run.outcomes})

    header = ["Category", "#"]
    for label in labels:
        header += [f"{label} #solved", f"{label} median(s)"]
    lines = ["\t".join(header)]

    for category in categories:
        first = runs[labels[0]].by_category().get(category, [])
        row = [category, str(len(first))]
        for label in labels:
            outcomes = runs[label].by_category().get(category, [])
            solved = [outcome for outcome in outcomes if outcome.solved]
            times = [outcome.elapsed for outcome in solved]
            row.append(str(len(solved)))
            row.append(_format_time(statistics.median(times) if times else None))
        lines.append("\t".join(row))

    total_row = ["Total", str(runs[labels[0]].total)]
    for label in labels:
        run = runs[label]
        total_row.append(f"{run.solved} ({100.0 * run.solved / max(run.total, 1):.1f}%)")
        total_row.append(_format_time(run.median_time()))
    lines.append("\t".join(total_row))
    return "\n".join(lines)


def figure17_series(runs: Dict[str, SuiteRun]) -> Dict[str, List[float]]:
    """Cumulative running-time series per configuration (Figure 17).

    Each series is the sorted list of per-benchmark running times; plotting
    index-vs-cumulative-sum reproduces the figure's curves.
    """
    series = {}
    for label, run in runs.items():
        times = run.cumulative_times()
        cumulative = []
        total = 0.0
        for value in times:
            total += value
            cumulative.append(round(total, 3))
        series[label] = cumulative
    return series


def figure17_table(runs: Dict[str, SuiteRun]) -> str:
    """Render the Figure 17 data as a summary table (solved count + medians)."""
    lines = ["Configuration\t#solved\tmedian time (s)\ttotal time (s)"]
    for label, run in runs.items():
        lines.append(
            "\t".join(
                [
                    label,
                    f"{run.solved}/{run.total}",
                    _format_time(run.median_time()),
                    f"{sum(run.cumulative_times()):.1f}",
                ]
            )
        )
    return "\n".join(lines)


def figure18_table(rows: Sequence[Figure18Row]) -> str:
    """Render the Figure 18 comparison (percentage solved per tool per suite)."""
    lines = ["Tool\tSuite\tSolved\tTotal\tPercent\tMedian time (s)"]
    for row in rows:
        lines.append(
            "\t".join(
                [
                    row.tool,
                    row.suite,
                    str(row.solved),
                    str(row.total),
                    f"{row.percentage:.1f}%",
                    _format_time(row.median_time),
                ]
            )
        )
    return "\n".join(lines)


def _totals(run: SuiteRun) -> Dict[str, int]:
    """The run's counters summed over its outcomes (0 for a counter never seen)."""
    return sum_counters((outcome.counters for outcome in run.outcomes), defaultdict(int))


def _prescreen_hit_rate(decided: int, fallback: int) -> str:
    """The prescreen hit-rate cell: deterministic (counters only), rendered
    with fixed precision so serial and ``--jobs N`` tables stay byte-identical."""
    total = decided + fallback
    if total == 0:
        return "-"
    return f"{100.0 * decided / total:.1f}%"


def deduction_summary_table(runs: Dict[str, SuiteRun]) -> str:
    """Per-configuration deduction counters (prescreen and SMT calls).

    Complements the Figure 16/17 tables: the prescreen columns show how many
    deduction queries the tier-1 interval sweep decided before any formula
    was built (``hit-rate`` = decided / prescreened).  Only deterministic
    counters appear (no wall-clock values), so the table is byte-identical
    between serial and ``--jobs N`` runs.
    """
    lines = [
        "Configuration\tSMT calls\tPrescreen decided\tPrescreen fallback"
        "\tPrescreen hit-rate"
    ]
    for label, run in runs.items():
        totals = _totals(run)
        decided, fallback = totals["prescreen_decided"], totals["prescreen_fallback"]
        lines.append(
            "\t".join(
                [
                    label,
                    str(totals["smt_calls"]),
                    str(decided),
                    str(fallback),
                    _prescreen_hit_rate(decided, fallback),
                ]
            )
        )
    return "\n".join(lines)


def execution_summary_table(runs: Dict[str, SuiteRun]) -> str:
    """Per-configuration concrete-execution counters (columnar executor).

    Complements :func:`deduction_summary_table` with the execution-side view:
    how many tables each configuration materialised, how many cells the
    intern pool deduplicated, how often fingerprint memos and the
    fingerprint-keyed execution cache answered instead of recomputing, and
    how many output comparisons the digest fast path decided without a
    cell-by-cell walk.  Only deterministic counters appear (no wall-clock
    values), so the table is byte-identical between serial and ``--jobs N``
    runs.
    """
    lines = [
        "Configuration\tTables built\tCells interned\tFingerprint hits"
        "\tExec-cache hits\tCompare fast-path"
    ]
    for label, run in runs.items():
        totals = _totals(run)
        lines.append(
            "\t".join(
                [
                    label,
                    str(totals["tables_built"]),
                    str(totals["cells_interned"]),
                    str(totals["fingerprint_hits"]),
                    str(totals["exec_cache_hits"]),
                    str(totals["compare_fastpath_hits"]),
                ]
            )
        )
    return "\n".join(lines)


def search_summary_table(runs: Dict[str, SuiteRun]) -> str:
    """Per-configuration search-kernel counters (completion + OE + frontier).

    Complements the deduction and execution tables with the search-shape
    view: how many candidate hole fillings each configuration tried
    (``partial programs``), how many node-boundary states were offered to
    the observational-equivalence store, how many of those were merged into
    an earlier representative (duplicated completion work skipped -- the
    ``--no-oe`` ablation reports zeroes), and the peak number of pending
    frontier states.  Only deterministic counters appear (no wall-clock
    values), so the table is byte-identical between serial and ``--jobs N``
    runs.
    """
    lines = [
        "Configuration\tPartial programs\tOE candidates\tOE merged"
        "\tOE merge-rate\tFrontier peak"
    ]
    for label, run in runs.items():
        totals = _totals(run)
        candidates, merged = totals["oe_candidates"], totals["oe_merged"]
        rate = "-" if candidates == 0 else f"{100.0 * merged / candidates:.1f}%"
        peak = max((outcome.counters["frontier_peak"] for outcome in run.outcomes), default=0)
        lines.append(
            "\t".join(
                [
                    label,
                    str(totals["partial_programs"]),
                    str(candidates),
                    str(merged),
                    rate,
                    str(peak),
                ]
            )
        )
    return "\n".join(lines)


def outcome_record(outcome) -> Dict:
    """One benchmark outcome as a JSON-ready dict (the ``--json`` rows).

    The task's identity, wall time, program and prune rate, then every
    deterministic counter of the session schema under its own name.
    Counter fields are deterministic; ``elapsed_s`` is wall clock.
    """
    return {
        "benchmark": outcome.benchmark,
        "category": outcome.category,
        "configuration": outcome.configuration,
        "solved": outcome.solved,
        "elapsed_s": round(outcome.elapsed, 4),
        "program": outcome.program,
        "program_size": outcome.program_size,
        "prune_rate": round(outcome.prune_rate, 4),
        **outcome.counters,
    }


#: The counters ``suite_runs_json`` totals per configuration.
RUN_COUNTERS = (
    "smt_calls", "prescreen_decided", "prescreen_fallback",
    "partial_programs", "oe_candidates", "oe_merged",
    "sibling_batches", "batched_fills",
)


def suite_runs_json(runs: Dict[str, SuiteRun]) -> Dict:
    """A whole figure run as a JSON-ready dict, keyed by configuration label.

    Emitted by the CLI's ``--json`` flag so the counters are
    machine-readable.
    """
    payload: Dict = {}
    for label, run in runs.items():
        totals = _totals(run)
        decided, fallback = totals["prescreen_decided"], totals["prescreen_fallback"]
        candidates, merged = totals["oe_candidates"], totals["oe_merged"]
        payload[label] = {
            "solved": run.solved,
            "total": run.total,
            "wall_total_s": round(sum(o.elapsed for o in run.outcomes), 4),
            **{name: totals[name] for name in RUN_COUNTERS},
            "prescreen_hit_rate": (
                round(decided / (decided + fallback), 4) if decided + fallback else None
            ),
            "oe_merge_rate": round(merged / candidates, 4) if candidates else None,
            "outcomes": [outcome_record(o) for o in run.outcomes],
        }
    return payload


def category_legend() -> str:
    """The C1-C9 category descriptions (the 'Description' column of Figure 16)."""
    lines = []
    for category, description in CATEGORY_DESCRIPTIONS.items():
        lines.append(f"{category} ({CATEGORY_COUNTS[category]} benchmarks): {description}")
    return "\n".join(lines)
