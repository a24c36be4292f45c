"""Golden regression tests pinning exact synthesized programs.

Conflict-driven lemma learning must never change *what* Morpheus
synthesizes, only how much solver work it spends getting there.  These tests
pin the rendered program text for a small Figure 16 subset, and additionally
require the ``--no-cdcl`` ablation to produce byte-identical programs, so any
unsound lemma (or ordering regression) that silently changes a synthesis
outcome fails loudly.
"""

import pytest

from repro.benchmarks import r_benchmark_suite
from repro.api import SynthesisRequest, create_session
from repro.core import SynthesisConfig
from repro.smt.solver import clear_formula_cache

#: name -> exact rendered program (the golden output of the seed synthesizer).
GOLDEN_PROGRAMS = {
    "c1_scores_wide_to_long": "df1 = gather(table1, key, value, round1, round2)",
    "c1_prices_long_to_wide": "df1 = spread(table1, store, price)",
    "c2_orders_count_by_region": (
        "df1 = group_by(table1, region)\n"
        "df2 = summarise(df1, agg = n())"
    ),
    "c5_join_filter_large_orders": (
        "df1 = inner_join(table1, table2)\n"
        'df2 = filter(df1, customer != "ann")'
    ),
}


def synthesize_benchmark(name, cdcl):
    benchmark = r_benchmark_suite().get(name)
    clear_formula_cache()
    config = SynthesisConfig(timeout=30, cdcl=cdcl)
    request = SynthesisRequest.from_tables(benchmark.inputs, benchmark.output, config=config)
    return create_session(request).solve()


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_cdcl_reproduces_the_golden_program(name):
    result = synthesize_benchmark(name, cdcl=True)
    assert result.solved
    assert result.render() == GOLDEN_PROGRAMS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_no_cdcl_ablation_matches_the_golden_program(name):
    result = synthesize_benchmark(name, cdcl=False)
    assert result.solved
    assert result.render() == GOLDEN_PROGRAMS[name]


def test_cdcl_saves_solver_work_on_the_golden_subset():
    """Across the subset, CDCL must not issue more SMT calls than plain
    deduction (per-benchmark counts can tie when the search is tiny)."""
    with_cdcl = 0
    without = 0
    for name in GOLDEN_PROGRAMS:
        with_cdcl += synthesize_benchmark(name, cdcl=True).stats.deduction.smt_calls
        without += synthesize_benchmark(name, cdcl=False).stats.deduction.smt_calls
    assert with_cdcl <= without
