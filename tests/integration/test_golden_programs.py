"""Golden regression tests pinning exact synthesized programs.

Conflict-driven lemma learning must never change *what* Morpheus
synthesizes, only how much solver work it spends getting there.  These tests
pin the rendered program text for a small Figure 16 subset, and additionally
require a run that mines no lemmas (``DeductionEngine._mine_lemma`` patched
to a no-op) to produce byte-identical programs, so any unsound lemma (or
ordering regression) that silently changes a synthesis outcome fails loudly.
"""

import pytest

from repro.benchmarks import r_benchmark_suite
from repro.api import SynthesisRequest, create_session
from repro.core import SynthesisConfig
from repro.core.deduction import DeductionEngine
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
def test_cdcl_reproduces_the_golden_program(name):
    _, result = synthesize_benchmark(name)
    assert result.solved
    assert result.render() == GOLDEN_PROGRAMS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_without_lemma_mining_matches_the_golden_program(name, no_lemma_mining):
    session, result = synthesize_benchmark(name)
    assert result.solved
    assert result.render() == GOLDEN_PROGRAMS[name]
    assert session.counters()["lemmas_learned"] == 0


def test_cdcl_saves_solver_work_on_the_golden_subset(monkeypatch):
    """Across the subset, CDCL must not issue more SMT calls than plain
    deduction (per-benchmark counts can tie when the search is tiny)."""
    with_cdcl = 0
    without = 0
    for name in GOLDEN_PROGRAMS:
        with_cdcl += synthesize_benchmark(name)[0].counters()["smt_calls"]
        with monkeypatch.context() as patch:
            patch.setattr(DeductionEngine, "_mine_lemma", lambda *args: None)
            without += synthesize_benchmark(name)[0].counters()["smt_calls"]
    assert with_cdcl <= without
