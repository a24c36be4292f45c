"""The solver's deadline and the formula-cache hooks it probes through.

A deadline bounds the lazy DPLL(T) loop: once it has passed between two
theory rounds the check answers UNKNOWN (``reason_unknown() == "timeout"``)
and nothing is cached, so a later check without a deadline still finds the
true verdict.  ``Solver.check`` probes and fills the formula cache through
the module-level ``formula_cache_lookup``/``formula_cache_store``, which is
what lets a wrapper observe every probe.
"""

import time

import pytest

from repro.baselines import spec2_config
from repro.benchmarks import r_benchmark_suite
from repro.benchmarks.runner import run_benchmark
from repro.smt import And, CheckResult, Int, Not, Solver
from repro.smt import solver as solver_module

x = Int("x")

#: ``x`` is one of 1..6, written with irreducible boolean structure (so it
#: takes the lazy path) and needing several theory rounds to decide.
CASES = Not(And(*[Not(x.equals(value)) for value in range(1, 7)]))
EXPIRED = -1.0


@pytest.fixture(autouse=True)
def fresh_formula_cache():
    previous = solver_module.install_formula_cache(solver_module.new_formula_cache())
    yield
    solver_module.install_formula_cache(previous)


def expired():
    return time.monotonic() + EXPIRED


class TestCheckDeadline:
    def test_expired_deadline_answers_unknown_and_caches_nothing(self):
        solver = Solver()
        solver.add(CASES, x >= 7)
        assert solver.check(deadline=expired()) is CheckResult.UNKNOWN
        assert solver.reason_unknown() == "timeout"
        assert solver.model() is None
        assert len(solver_module._formula_cache) == 0

        again = Solver()
        again.add(CASES, x >= 7)
        assert again.check() is CheckResult.UNSAT
        assert again.reason_unknown() is None
        assert len(solver_module._formula_cache) == 1

    def test_future_deadline_changes_nothing(self):
        solver = Solver()
        solver.add(CASES, x >= 6)
        assert solver.check(deadline=time.monotonic() + 60) is CheckResult.SAT
        assert solver.model()["x"] == 6
        assert solver.reason_unknown() is None

    def test_first_round_still_decides_after_the_deadline(self):
        # The deadline is consulted between rounds, so a query the first
        # boolean model settles keeps its definite verdict.
        solver = Solver()
        solver.add(Not(And(x >= 1, x <= 2)), x >= 1, x <= 2)
        assert solver.check(deadline=expired()) is CheckResult.UNSAT

    def test_max_theory_rounds_is_cached(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_THEORY_ROUNDS", 1)
        solver = Solver()
        solver.add(CASES, x >= 7)
        assert solver.check() is CheckResult.UNKNOWN
        assert solver.reason_unknown() == "max theory rounds"
        assert len(solver_module._formula_cache) == 1


def test_one_cache_lookup_per_smt_call(monkeypatch):
    lookups = []
    original = solver_module.formula_cache_lookup

    def counting(formula):
        lookups.append(formula)
        return original(formula)

    monkeypatch.setattr(solver_module, "formula_cache_lookup", counting)
    benchmark = r_benchmark_suite().get("c3_exam_gather_unite_spread")
    outcome = run_benchmark(benchmark, spec2_config(timeout=30))
    assert outcome.solved
    assert outcome.counters["smt_calls"] > 0
    assert len(lookups) == outcome.counters["smt_calls"]
