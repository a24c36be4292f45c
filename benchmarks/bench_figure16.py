"""Figure 16: per-category synthesis with No-deduction / Spec 1 / Spec 2.

Each pytest-benchmark target times Morpheus under one of the paper's three
configurations on one representative benchmark per category; the
``test_figure16_summary`` target runs the aggregated table on the subset and
asserts the paper's qualitative shape (deduction never solves fewer tasks).

Regenerate the full table with::

    python -m repro.benchmarks.cli figure16 --timeout 60
"""

import pytest

from repro.api import sum_counters
from repro.baselines import FIGURE16_CONFIGS, spec2_config, spec2_no_oe_config
from repro.benchmarks import (
    deduction_summary_table,
    execution_summary_table,
    figure16_table,
    r_benchmark_suite,
    run_benchmark,
    run_figure16,
    run_suite,
)
from repro.core import deduction
from conftest import BENCH_FULL, BENCH_TIMEOUT, REPRESENTATIVE_BENCHMARKS

SUITE = r_benchmark_suite()
NAMES = SUITE.names() if BENCH_FULL else REPRESENTATIVE_BENCHMARKS


@pytest.mark.parametrize("config_name", list(FIGURE16_CONFIGS))
@pytest.mark.parametrize("benchmark_name", NAMES)
def test_figure16_cell(benchmark, config_name, benchmark_name):
    """Time one (configuration, benchmark) cell of Figure 16."""
    task = SUITE.get(benchmark_name)
    config = FIGURE16_CONFIGS[config_name](BENCH_TIMEOUT)

    def run():
        return run_benchmark(task, config, label=config_name)

    outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info["solved"] = outcome.solved
    benchmark.extra_info["category"] = outcome.category


def test_figure16_summary(capsys):
    """Aggregate the subset and check the qualitative ordering of Figure 16."""
    subset = SUITE.subset(names=NAMES)
    runs = run_figure16(timeout=BENCH_TIMEOUT, suite=subset)
    table = figure16_table(runs)
    with capsys.disabled():
        print("\n" + table)
        print(deduction_summary_table(runs))
        print(execution_summary_table(runs))
    assert runs["spec2"].solved >= runs["spec1"].solved >= 0
    assert runs["spec2"].solved >= runs["no-deduction"].solved
    # The tier-1 prescreen must decide a majority of the deduction queries it
    # sweeps on the subset (the ISSUE 4 acceptance bar is >= 50%).
    spec2 = _totals(runs["spec2"])
    decided, fallback = spec2["prescreen_decided"], spec2["prescreen_fallback"]
    assert decided > 0
    assert decided >= fallback, (decided, fallback)
    # The columnar comparison fast path must actually fire on the subset.
    assert spec2["compare_fastpath_hits"] > 0
    assert spec2["tables_built"] > 0


def _outcomes(run):
    return [(o.benchmark, o.solved, o.program) for o in run.outcomes]


def _totals(run):
    return sum_counters(o.counters for o in run.outcomes)


def _without_prescreen(patch):
    """Send every deduction query past the tier-1 prescreen."""
    patch.setattr(deduction, "prescreen_infeasible", lambda *args: False)


def test_prescreen_ablation_smoke(capsys, monkeypatch):
    """Prescreen vs no prescreen on the Figure 16 subset: same programs, less work.

    The acceptance bar for the tier-1 interval prescreen: with the prescreen
    running the run must decide >= 50% of its deduction queries without the
    solver, issue *fewer* SMT ``check()`` calls than a run with the
    prescreen patched out, and synthesize byte-identical programs with
    identical solve/fail outcomes.
    """
    subset = SUITE.subset(names=NAMES)
    tiered = run_suite(subset, spec2_config, timeout=BENCH_TIMEOUT, label="spec2")
    with monkeypatch.context() as patch:
        _without_prescreen(patch)
        plain = run_suite(subset, spec2_config, timeout=BENCH_TIMEOUT, label="spec2")
    tiered_totals, plain_totals = _totals(tiered), _totals(plain)
    decided = tiered_totals["prescreen_decided"]
    fallback = tiered_totals["prescreen_fallback"]
    with capsys.disabled():
        print(
            f"\nprescreen: decided={decided} fallback={fallback} "
            f"smt={tiered_totals['smt_calls']} | "
            f"no-prescreen: smt={plain_totals['smt_calls']}"
        )
    assert _outcomes(tiered) == _outcomes(plain)
    assert decided >= fallback, (decided, fallback)
    assert tiered_totals["smt_calls"] < plain_totals["smt_calls"]
    assert all(o.counters["prescreen_decided"] == 0 for o in plain.outcomes)


def test_oe_ablation_smoke(capsys):
    """OE vs --no-oe on the Figure 16 subset: same programs, less completion work.

    The acceptance bar for the observational-equivalence store (ISSUE 5):
    with merging enabled the run must collapse at least one duplicate
    completion state (``oe_merged > 0``), try no *more* candidate hole
    fillings than the ablation, and synthesize byte-identical programs with
    identical solve/fail outcomes.
    """
    subset = SUITE.subset(names=NAMES)
    merged = run_suite(subset, spec2_config, timeout=BENCH_TIMEOUT, label="spec2")
    plain = run_suite(
        subset, spec2_no_oe_config, timeout=BENCH_TIMEOUT, label="spec2-no-oe"
    )
    merged_totals, plain_totals = _totals(merged), _totals(plain)
    oe_merged = merged_totals["oe_merged"]
    with capsys.disabled():
        print(
            f"\noe: candidates={merged_totals['oe_candidates']} "
            f"merged={oe_merged} "
            f"partial={merged_totals['partial_programs']} | "
            f"no-oe: partial={plain_totals['partial_programs']}"
        )
    assert _outcomes(merged) == _outcomes(plain)
    assert oe_merged > 0
    assert merged_totals["partial_programs"] <= plain_totals["partial_programs"]
    assert all(o.counters["oe_candidates"] == 0 for o in plain.outcomes)
