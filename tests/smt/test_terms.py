"""Tests for linear expressions and formula construction."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.smt import (
    FALSE,
    TRUE,
    And,
    BoolVal,
    Int,
    LinExpr,
    Not,
    Or,
    conjoin,
    disjoin,
    formula_atoms,
    formula_variables,
)
from repro.smt.lia import _integer_row


class TestLinExpr:
    def test_variable_and_constant(self):
        x = Int("x")
        assert x.coeffs == {"x": 1}
        assert LinExpr.constant(5).const == 5

    def test_addition_collects_coefficients(self):
        x, y = Int("x"), Int("y")
        expr = x + y + x + 3
        assert expr.coeffs == {"x": 2, "y": 1}
        assert expr.const == 3

    def test_subtraction_and_negation(self):
        x, y = Int("x"), Int("y")
        expr = x - y - 2
        assert expr.coeffs == {"x": 1, "y": -1}
        assert expr.const == -2
        assert (-expr).const == 2

    def test_scalar_multiplication(self):
        x = Int("x")
        assert (3 * x).coeffs == {"x": 3}
        assert (x * Fraction(1, 2)).coeffs == {"x": Fraction(1, 2)}

    def test_product_of_variables_rejected(self):
        with pytest.raises(TypeError):
            Int("x") * Int("y")

    def test_zero_coefficients_dropped(self):
        x = Int("x")
        assert (x - x).coeffs == {}

    def test_evaluate(self):
        expr = Int("x") * 2 + Int("y") - 1
        assert expr.evaluate({"x": 3, "y": 4}) == 9

    def test_structural_equality(self):
        assert Int("x") + 1 == Int("x") + 1
        assert Int("x") != Int("y")


class TestAtoms:
    def test_le_normalisation(self):
        atom = Int("x") <= 5
        assert atom.op == "<="
        assert atom.holds({"x": 5})
        assert not atom.holds({"x": 6})

    def test_strict_inequality_uses_integrality(self):
        atom = Int("x") < 5
        assert atom.holds({"x": 4})
        assert not atom.holds({"x": 5})

    def test_ge_gt(self):
        assert (Int("x") >= 2).holds({"x": 2})
        assert (Int("x") > 2).holds({"x": 3})
        assert not (Int("x") > 2).holds({"x": 2})

    def test_equality_atom(self):
        atom = Int("x").equals(Int("y") + 1)
        assert atom.op == "=="
        assert atom.holds({"x": 3, "y": 2})

    def test_negated_atoms(self):
        le = Int("x") <= 3
        (negated,) = le.negated_atoms()
        assert negated.holds({"x": 4})
        assert not negated.holds({"x": 3})
        eq = Int("x").equals(3)
        branches = eq.negated_atoms()
        assert len(branches) == 2
        assert any(branch.holds({"x": 2}) for branch in branches)
        assert any(branch.holds({"x": 4}) for branch in branches)

    def test_variables(self):
        atom = (Int("a") + Int("b")) <= 0
        assert atom.variables() == ("a", "b")


class TestFormulas:
    def test_conjoin_simplifies(self):
        assert conjoin([]) == TRUE
        assert conjoin([TRUE, TRUE]) == TRUE
        assert conjoin([FALSE, Int("x") <= 1]) == FALSE
        single = Int("x") <= 1
        assert conjoin([single]) is single

    def test_disjoin_simplifies(self):
        assert disjoin([]) == FALSE
        assert disjoin([TRUE, Int("x") <= 1]) == TRUE

    def test_nary_flattening(self):
        a, b, c = (Int(name) <= 0 for name in "abc")
        formula = And(And(a, b), c)
        assert len(formula.operands) == 3

    def test_operator_overloads(self):
        a, b = Int("a") <= 0, Int("b") <= 0
        assert isinstance(a & b, And)
        assert isinstance(a | b, Or)
        assert isinstance(~a, Not)

    def test_formula_variables_and_atoms(self):
        formula = And(Int("a") <= 0, Or(Int("b").equals(1), Not(Int("a") <= 0)))
        assert formula_variables(formula) == ("a", "b")
        assert formula_atoms(formula) == (Int("a") <= 0, Int("b").equals(1))

    def test_formula_atoms_keep_first_appearance_order(self):
        a, b, c = Int("a") <= 0, Int("b") <= 1, Int("c").equals(2)
        formula = Or(And(c, a), Not(c), And(b, Or(a, b)))
        assert formula_atoms(formula) == (c, a, b)

    def test_boolval_repr(self):
        assert repr(BoolVal(True)) == "true"


class TestProperties:
    @given(
        st.dictionaries(st.sampled_from("xyz"), st.integers(-50, 50), min_size=1, max_size=3),
        st.integers(-50, 50),
        st.dictionaries(st.sampled_from("xyz"), st.integers(-20, 20), min_size=3, max_size=3),
    )
    def test_addition_is_pointwise(self, coeffs, const, assignment):
        expr = LinExpr(coeffs, const)
        doubled = expr + expr
        assert doubled.evaluate(assignment) == 2 * expr.evaluate(assignment)

    @given(
        st.integers(-30, 30),
        st.integers(-30, 30),
        st.dictionaries(st.sampled_from("ab"), st.integers(-20, 20), min_size=2, max_size=2),
    )
    def test_le_atom_matches_semantics(self, scale, offset, assignment):
        expr = Int("a") * scale + offset - Int("b")
        atom = expr <= 0
        assert atom.holds(assignment) == (expr.evaluate(assignment) <= 0)


class TestNormalisation:
    """Integral coefficients are stored as ``int``; only true fractions stay ``Fraction``."""

    def test_integral_fractions_become_ints(self):
        expr = LinExpr({"x": Fraction(4, 2), "y": Fraction(-3)}, Fraction(6, 3))
        assert expr.coeffs == {"x": 2, "y": -3}
        assert all(type(coeff) is int for coeff in expr.coeffs.values())
        assert type(expr.const) is int
        scaled = Int("x") * Fraction(1, 2) * 4 + Fraction(1, 2) + Fraction(1, 2)
        assert type(scaled.coeffs["x"]) is int
        assert type(scaled.const) is int
        assert type((Int("x") * Fraction(3)).coeffs["x"]) is int

    def test_fraction_and_int_coefficients_are_interchangeable(self):
        assert LinExpr({"x": Fraction(2)}) == LinExpr({"x": 2})
        assert hash(LinExpr({"x": Fraction(2)})) == hash(LinExpr({"x": 2}))
        assert LinExpr({}, Fraction(5, 5)) == LinExpr.constant(1)

    def test_fractional_coefficients_stay_fractions(self):
        expr = LinExpr({"x": Fraction(1, 2)}, Fraction(-7, 3))
        assert expr.coeffs["x"] == Fraction(1, 2)
        assert isinstance(expr.coeffs["x"], Fraction)
        assert isinstance(expr.const, Fraction)

    def test_zero_fraction_dropped(self):
        assert LinExpr({"x": Fraction(0, 3)}).coeffs == {}

    def test_repr_unchanged(self):
        x, y = Int("x"), Int("y")
        assert repr(2 * x + Fraction(1, 2)) == "2*x + 1/2"
        assert repr(x * Fraction(-3, 4) - y + Fraction(5, 1)) == "-3/4*x - y + 5"
        assert repr(x * Fraction(4, 2)) == "2*x"
        assert repr((x * Fraction(1, 2) + y) <= 3) == "(1/2*x + y - 3 <= 0)"

    def test_negated_atoms_and_integer_rows_unchanged(self):
        x, y = Int("x"), Int("y")
        expected = [
            (
                x * Fraction(1, 2) + y <= 3,
                ({"x": 1, "y": 2}, -6, False),
                [("(-1/2*x - y + 4 <= 0)", ({"x": -1, "y": -2}, 8, False))],
            ),
            (
                2 * x - y <= 3,
                ({"x": 2, "y": -1}, -3, False),
                [("(-2*x + y + 4 <= 0)", ({"x": -2, "y": 1}, 4, False))],
            ),
            (
                x.equals(y * Fraction(3, 2) + 1),
                ({"x": 2, "y": -3}, -2, True),
                [
                    ("(x - 3/2*y <= 0)", ({"x": 2, "y": -3}, 0, False)),
                    ("(-x + 3/2*y + 2 <= 0)", ({"x": -2, "y": 3}, 4, False)),
                ],
            ),
            (
                x * Fraction(4, 2) < y,
                ({"x": 2, "y": -1}, 1, False),
                [("(-2*x + y <= 0)", ({"x": -2, "y": 1}, 0, False))],
            ),
            (
                x.equals(Fraction(1, 3)),
                ({"x": 3}, -1, True),
                [
                    ("(x + 2/3 <= 0)", ({"x": 3}, 2, False)),
                    ("(-x + 4/3 <= 0)", ({"x": -3}, 4, False)),
                ],
            ),
        ]
        for atom, row, negations in expected:
            assert _integer_row(atom) == row
            assert [(repr(n), _integer_row(n)) for n in atom.negated_atoms()] == negations
            coeffs, const, _ = _integer_row(atom)
            assert all(type(value) is int for value in (*coeffs.values(), const))


class TestCachedHashes:
    def test_hash_is_stable_and_structural(self):
        a = (Int("a") + 2 * Int("b")) <= 3
        b = Int("c").equals(1)
        first, second = And(a, Or(b, Not(a))), And(a, Or(b, Not(a)))
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert hash(first) == hash(first)
        assert And(a, b) != Or(a, b)
        assert {first: "hit"}[second] == "hit"

    def test_pickle_and_copy_drop_the_cached_hash(self):
        import copy

        formula = And(Int("x") <= 1, Or(Int("y").equals(2), Int("z") <= Int("x")))
        hash(formula)
        assert formula._hash is not None
        for clone in (pickle.loads(pickle.dumps(formula)), copy.deepcopy(formula)):
            assert clone._hash is None
            assert clone == formula and hash(clone) == hash(formula)
        expr = Int("x") + Fraction(1, 2)
        hash(expr)
        clone = pickle.loads(pickle.dumps(expr))
        assert clone._hash is None and clone == expr

    def test_pickled_formula_survives_a_new_hash_seed(self, tmp_path):
        """A formula hashed and pickled under one seed works under another."""
        build = (
            "from repro.smt import And, Int, Or\n"
            "def build():\n"
            "    x, y = Int('row.x'), Int('col.y')\n"
            "    return And(x <= 3, Or(y.equals(x + 1), (2 * x) >= y), x - y < 7)\n"
        )
        dump = build + (
            "import pickle, sys\n"
            "formula = build()\n"
            "table = {formula: 'entry'}\n"
            "hash(formula.operands[1]); hash(formula.operands[0].expr)\n"
            "sys.stdout.buffer.write(pickle.dumps((formula, table)))\n"
        )
        load = build + (
            "import pickle, sys\n"
            "formula, table = pickle.load(open(sys.argv[1], 'rb'))\n"
            "fresh = build()\n"
            "assert formula == fresh, (formula, fresh)\n"
            "assert hash(formula) == hash(fresh)\n"
            "assert hash(formula.operands[0].expr) == hash(fresh.operands[0].expr)\n"
            "assert table[fresh] == 'entry'\n"
            "assert {fresh: 1}[formula] == 1\n"
            "print('ok')\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")

        def run(seed, code, *args):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr.decode()
            return done.stdout

        payload = tmp_path / "formula.pickle"
        payload.write_bytes(run(0, dump))
        assert run(26, load, str(payload)).strip() == b"ok"
