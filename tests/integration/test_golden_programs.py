"""Golden regression tests pinning exact synthesized programs.

These tests pin the rendered program text for a small Figure 16 subset, so
an unsound deduction tier (or an ordering regression) that silently changes
a synthesis outcome fails loudly.
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


def synthesize_benchmark(name):
    """The solved session of one benchmark and its core result."""
    benchmark = r_benchmark_suite().get(name)
    clear_formula_cache()
    config = SynthesisConfig(timeout=30)
    request = SynthesisRequest.from_tables(benchmark.inputs, benchmark.output, config=config)
    session = create_session(request)
    return session, session.solve()


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_search_reproduces_the_golden_program(name):
    _, result = synthesize_benchmark(name)
    assert result.solved
    assert result.render() == GOLDEN_PROGRAMS[name]
