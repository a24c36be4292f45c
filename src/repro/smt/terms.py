"""Linear integer terms and quantifier-free formulas.

The deduction engine of the paper emits formulas in the theory of Linear
Integer Arithmetic (Presburger arithmetic without quantifiers): boolean
combinations of linear constraints over integer variables such as
``?1.row < ?3.row`` or ``x1.col = 4``.  This module defines the term and
formula AST used by :mod:`repro.smt.solver`.

Linear expressions support Python's arithmetic and comparison operators, so
constraints read naturally::

    row_out = Int("out.row")
    row_in = Int("in.row")
    spec = (row_out <= row_in) & (row_out >= 1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

Number = Union[int, Fraction]


def _normalise(value) -> Number:
    """*value* as an ``int`` when integral, else as a :class:`Fraction`.

    Terms keep integral coefficients as plain ints so the theory layer runs
    on machine integers; only genuinely fractional values pay for
    ``Fraction``.  Equality and hashing are unaffected, because
    ``Fraction(2) == 2`` and ``hash(Fraction(2)) == hash(2)``.
    """
    if value.__class__ is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


# ----------------------------------------------------------------------
# Linear expressions
# ----------------------------------------------------------------------
class LinExpr:
    """A linear expression ``c0 + c1*x1 + ... + cn*xn`` over integer variables."""

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: Mapping[str, Number] = (), const: Number = 0) -> None:
        cleaned: Dict[str, Number] = {}
        for name, coeff in dict(coeffs).items():
            coeff = _normalise(coeff)
            if coeff:
                cleaned[name] = coeff
        self.coeffs: Dict[str, Number] = cleaned
        self.const: Number = _normalise(const)
        # Computed on first use.  The hash covers variable names, whose string
        # hash differs per process, so it never travels with the object (see
        # ``__reduce__``).
        self._hash: Optional[int] = None

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def variable(name: str) -> "LinExpr":
        """The expression consisting of a single variable."""
        return LinExpr({name: 1}, 0)

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        """The constant expression *value*."""
        return LinExpr({}, value)

    @staticmethod
    def coerce(value: "LinOperand") -> "LinExpr":
        """Coerce an int/Fraction/LinExpr into a LinExpr."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return LinExpr.constant(value)
        raise TypeError(f"cannot use {value!r} in a linear expression")

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "LinOperand") -> "LinExpr":
        other = LinExpr.coerce(other)
        coeffs = dict(self.coeffs)
        for name, coeff in other.coeffs.items():
            coeffs[name] = coeffs.get(name, 0) + coeff
        return LinExpr(coeffs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({name: -coeff for name, coeff in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "LinOperand") -> "LinExpr":
        return self + (-LinExpr.coerce(other))

    def __rsub__(self, other: "LinOperand") -> "LinExpr":
        return LinExpr.coerce(other) + (-self)

    def __mul__(self, scalar: Number) -> "LinExpr":
        if isinstance(scalar, LinExpr):
            raise TypeError("products of variables are not linear")
        scalar = _normalise(scalar)
        return LinExpr(
            {name: coeff * scalar for name, coeff in self.coeffs.items()},
            self.const * scalar,
        )

    __rmul__ = __mul__

    # -- comparisons produce atoms --------------------------------------------
    def __le__(self, other: "LinOperand") -> "Atom":
        return Atom.less_equal(self, LinExpr.coerce(other))

    def __ge__(self, other: "LinOperand") -> "Atom":
        return Atom.less_equal(LinExpr.coerce(other), self)

    def __lt__(self, other: "LinOperand") -> "Atom":
        return Atom.less_than(self, LinExpr.coerce(other))

    def __gt__(self, other: "LinOperand") -> "Atom":
        return Atom.less_than(LinExpr.coerce(other), self)

    def equals(self, other: "LinOperand") -> "Atom":
        """The atom ``self == other`` (named method, ``==`` keeps Python semantics)."""
        return Atom.equal(self, LinExpr.coerce(other))

    def not_equals(self, other: "LinOperand") -> "Formula":
        """The formula ``self != other``."""
        return Not(self.equals(other))

    # -- evaluation / display --------------------------------------------------
    def evaluate(self, assignment: Mapping[str, Number]) -> Fraction:
        """Evaluate under an assignment of variables to numbers."""
        total = self.const
        for name, coeff in self.coeffs.items():
            total += coeff * Fraction(assignment[name])
        return total

    def variables(self) -> Tuple[str, ...]:
        """The variables occurring in this expression."""
        return tuple(sorted(self.coeffs))

    def __repr__(self) -> str:
        pieces = []
        for name in sorted(self.coeffs):
            coeff = self.coeffs[name]
            if coeff == 1:
                pieces.append(name)
            elif coeff == -1:
                pieces.append(f"-{name}")
            else:
                pieces.append(f"{coeff}*{name}")
        if self.const != 0 or not pieces:
            pieces.append(str(self.const))
        return " + ".join(pieces).replace("+ -", "- ")

    def __eq__(self, other: object) -> bool:  # structural equality
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(sorted(self.coeffs.items())), self.const))
        return self._hash

    def __reduce__(self):
        return LinExpr, (self.coeffs, self.const)


LinOperand = Union[LinExpr, int, Fraction]


def Int(name: str) -> LinExpr:
    """Create an integer variable (z3-style constructor)."""
    return LinExpr.variable(name)


# ----------------------------------------------------------------------
# Formulas
# ----------------------------------------------------------------------
class Formula:
    """Base class of quantifier-free LIA formulas."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class BoolVal(Formula):
    """The constant ``true`` or ``false``."""

    value: bool

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolVal(True)
FALSE = BoolVal(False)


@dataclass(frozen=True)
class Atom(Formula):
    """A linear constraint in canonical form ``expr <op> 0``.

    ``op`` is ``"<="`` or ``"=="``; strict inequalities are normalised using
    integrality (``a < b`` becomes ``a - b + 1 <= 0``).
    """

    op: str
    expr: LinExpr = field(compare=True)

    @staticmethod
    def less_equal(left: LinExpr, right: LinExpr) -> "Atom":
        """``left <= right``."""
        return Atom("<=", left - right)

    @staticmethod
    def less_than(left: LinExpr, right: LinExpr) -> "Atom":
        """``left < right`` (over the integers: ``left + 1 <= right``)."""
        return Atom("<=", left - right + 1)

    @staticmethod
    def equal(left: LinExpr, right: LinExpr) -> "Atom":
        """``left == right``."""
        return Atom("==", left - right)

    def negated_atoms(self) -> Tuple["Atom", ...]:
        """The negation of this atom as a disjunction of atoms.

        ``not (e <= 0)`` is ``-e + 1 <= 0``; ``not (e == 0)`` is the
        disjunction ``e + 1 <= 0  or  -e + 1 <= 0``.
        """
        if self.op == "<=":
            return (Atom("<=", -self.expr + 1),)
        return (Atom("<=", self.expr + 1), Atom("<=", -self.expr + 1))

    def holds(self, assignment: Mapping[str, Number]) -> bool:
        """Evaluate the atom under a full assignment."""
        value = self.expr.evaluate(assignment)
        if self.op == "<=":
            return value <= 0
        return value == 0

    def variables(self) -> Tuple[str, ...]:
        """Variables occurring in the atom."""
        return self.expr.variables()

    def __repr__(self) -> str:
        return f"({self.expr} {self.op} 0)"


@dataclass(frozen=True)
class Not(Formula):
    """Logical negation."""

    operand: Formula

    def __repr__(self) -> str:
        return f"(not {self.operand!r})"


class _NaryFormula(Formula):
    """Shared implementation of :class:`And` / :class:`Or`."""

    __slots__ = ("operands", "_hash")
    _symbol = "?"

    def __init__(self, *operands: Formula) -> None:
        flattened = []
        for operand in operands:
            if isinstance(operand, self.__class__):
                flattened.extend(operand.operands)
            else:
                flattened.append(operand)
        self.operands: Tuple[Formula, ...] = tuple(flattened)
        # Lazily computed and never pickled, like ``LinExpr._hash``.
        self._hash: Optional[int] = None

    def __repr__(self) -> str:
        return "(" + f" {self._symbol} ".join(repr(op) for op in self.operands) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, self.__class__) and self.operands == other.operands

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.__class__.__name__, self.operands))
        return self._hash

    def __reduce__(self):
        return self.__class__, self.operands


class And(_NaryFormula):
    """Conjunction (n-ary, flattening)."""

    _symbol = "and"


class Or(_NaryFormula):
    """Disjunction (n-ary, flattening)."""

    _symbol = "or"


def conjoin(formulas: Iterable[Formula]) -> Formula:
    """Conjunction of an iterable of formulas (``true`` if empty)."""
    formulas = [f for f in formulas if not (isinstance(f, BoolVal) and f.value)]
    if not formulas:
        return TRUE
    if any(isinstance(f, BoolVal) and not f.value for f in formulas):
        return FALSE
    if len(formulas) == 1:
        return formulas[0]
    return And(*formulas)


def disjoin(formulas: Iterable[Formula]) -> Formula:
    """Disjunction of an iterable of formulas (``false`` if empty)."""
    formulas = [f for f in formulas if not (isinstance(f, BoolVal) and not f.value)]
    if not formulas:
        return FALSE
    if any(isinstance(f, BoolVal) and f.value for f in formulas):
        return TRUE
    if len(formulas) == 1:
        return formulas[0]
    return Or(*formulas)


def formula_variables(formula: Formula) -> Tuple[str, ...]:
    """All integer variables occurring in *formula*."""
    seen = set()
    for atom in _iter_atoms(formula):
        seen.update(atom.variables())
    return tuple(sorted(seen))


def formula_atoms(formula: Formula) -> Tuple[Atom, ...]:
    """All distinct atoms occurring in *formula* (in first-appearance order)."""
    return tuple(dict.fromkeys(_iter_atoms(formula)))


def _iter_atoms(node: Formula) -> Iterator[Atom]:
    """Every atom occurrence in *node*, left to right (with repeats)."""
    if isinstance(node, Atom):
        yield node
    elif isinstance(node, Not):
        yield from _iter_atoms(node.operand)
    elif isinstance(node, (And, Or)):
        for operand in node.operands:
            yield from _iter_atoms(operand)
