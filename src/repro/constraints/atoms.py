"""Linear arithmetic constraint atoms.

A *linear arithmetic constraint* in the paper (Section 3.1) has the form::

    r1*x1 + ... + rm*xm  relop  r      relop in {=, <=, >=, <, >, !=}

Atoms are stored in a normal form with the relation drawn from
``{=, <=, <, !=}`` (``>=``/``>`` are flipped on construction) and with the
coefficient vector scaled so that structurally-equal atoms compare equal:

* the non-variable part is moved entirely to the right-hand side,
* coefficients are divided by the gcd of their numerators / lcm of their
  denominators,
* for ``=`` and ``!=`` (which are sign-symmetric) the leading coefficient
  (of the alphabetically first variable) is made positive.

This normalization is the first half of the paper's canonical form; the
rest (satisfiability pruning, duplicate removal) lives in
:mod:`repro.constraints.canonical`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd
from typing import Mapping

from repro.errors import ConstraintError
from repro.constraints.terms import (
    LinearExpression,
    RationalLike,
    Variable,
    format_fraction,
)


class Relop(enum.Enum):
    """Relational operator of a constraint atom."""

    EQ = "="
    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"
    NE = "!="

    @property
    def is_strict(self) -> bool:
        return self in (Relop.LT, Relop.GT)

    @property
    def flipped(self) -> "Relop":
        """The operator with both sides exchanged."""
        flips = {
            Relop.LE: Relop.GE, Relop.GE: Relop.LE,
            Relop.LT: Relop.GT, Relop.GT: Relop.LT,
            Relop.EQ: Relop.EQ, Relop.NE: Relop.NE,
        }
        return flips[self]

    @property
    def negated(self) -> "Relop":
        """The operator of the complementary constraint."""
        negations = {
            Relop.LE: Relop.GT, Relop.GT: Relop.LE,
            Relop.GE: Relop.LT, Relop.LT: Relop.GE,
            Relop.EQ: Relop.NE, Relop.NE: Relop.EQ,
        }
        return negations[self]

    def holds(self, lhs: Fraction, rhs: Fraction) -> bool:
        if self is Relop.EQ:
            return lhs == rhs
        if self is Relop.LE:
            return lhs <= rhs
        if self is Relop.LT:
            return lhs < rhs
        if self is Relop.GE:
            return lhs >= rhs
        if self is Relop.GT:
            return lhs > rhs
        return lhs != rhs


class LinearConstraint:
    """A normalized linear arithmetic constraint ``expr relop bound``.

    ``expr`` has no constant term (it was folded into ``bound``) and the
    stored ``relop`` is one of ``=, <=, <, !=``.

    Instances are immutable and hashable; structural equality after
    normalization is what the paper calls "deletion of syntactic
    duplicates".
    """

    __slots__ = ("_expr", "_relop", "_bound", "_hash")

    def __init__(self, expr: LinearExpression, relop: Relop,
                 bound: Fraction):
        # Internal constructor: callers should use :meth:`build`.
        self._expr = expr
        self._relop = relop
        self._bound = bound
        self._hash: int | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, lhs, relop: Relop, rhs) -> "LinearConstraint":
        """Build and normalize an atom from arbitrary linear sides."""
        lhs = LinearExpression.coerce(lhs)
        rhs = LinearExpression.coerce(rhs)
        diff = lhs - rhs
        expr = LinearExpression(diff.coefficients, 0)
        bound = -diff.constant_term
        if relop in (Relop.GE, Relop.GT):
            expr, bound, relop = -expr, -bound, relop.flipped
        return cls._normalized(expr, relop, bound)

    @classmethod
    def _normalized(cls, expr: LinearExpression, relop: Relop,
                    bound: Fraction) -> "LinearConstraint":
        coeffs = expr.coefficients
        if not coeffs:
            # Trivial atoms normalize to the canonical TRUE (0 = 0) or
            # FALSE (0 = 1) so that semantically-equal trivia compare
            # equal.
            truth = relop.holds(Fraction(0), bound)
            return cls(LinearExpression({}, 0), Relop.EQ,
                       Fraction(0 if truth else 1))
        if coeffs:
            scale = _normalizing_scale(list(coeffs.values()) + [bound])
            if relop in (Relop.EQ, Relop.NE):
                lead_var = min(coeffs, key=lambda v: v.name)
                if coeffs[lead_var] < 0:
                    scale = -scale
            expr = LinearExpression(
                {v: c * scale for v, c in coeffs.items()}, 0)
            bound = bound * scale
        return cls(expr, relop, bound)

    # -- inspection -------------------------------------------------------

    @property
    def expression(self) -> LinearExpression:
        return self._expr

    @property
    def relop(self) -> Relop:
        return self._relop

    @property
    def bound(self) -> Fraction:
        return self._bound

    @property
    def variables(self) -> frozenset[Variable]:
        return self._expr.variables

    @property
    def is_trivial(self) -> bool:
        """True when the atom mentions no variables (``0 relop c``)."""
        return self._expr.is_constant()

    def trivial_truth(self) -> bool:
        """Truth value of a trivial atom (raises if not trivial)."""
        if not self.is_trivial:
            raise ConstraintError("atom is not trivial")
        return self._relop.holds(Fraction(0), self._bound)

    def is_equality(self) -> bool:
        return self._relop is Relop.EQ

    def is_disequality(self) -> bool:
        return self._relop is Relop.NE

    def is_strict(self) -> bool:
        return self._relop is Relop.LT

    # -- logical operations ------------------------------------------------

    def negate(self) -> "LinearConstraint":
        """Complement of the atom (always a single atom).

        ``=`` negates to ``!=``; callers that need a strict-inequality
        split of that result use :meth:`split_disequality`.
        """
        return LinearConstraint.build(self._expr, self._relop.negated,
                                      self._bound)

    def split_disequality(self) -> tuple["LinearConstraint", "LinearConstraint"]:
        """``expr != b`` as the disjunction ``expr < b  or  expr > b``."""
        if self._relop is not Relop.NE:
            raise ConstraintError("not a disequality")
        return (LinearConstraint.build(self._expr, Relop.LT, self._bound),
                LinearConstraint.build(self._expr, Relop.GT, self._bound))

    def weakened(self) -> "LinearConstraint":
        """The non-strict version of a strict inequality (``<`` -> ``<=``)."""
        if self._relop is Relop.LT:
            return LinearConstraint.build(self._expr, Relop.LE, self._bound)
        return self

    # -- evaluation & substitution ------------------------------------------

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        """Truth of the atom at a concrete rational point."""
        return self._relop.holds(self._expr.evaluate(point), self._bound)

    def substitute(self, bindings) -> "LinearConstraint":
        new_expr = self._expr.substitute(bindings)
        return LinearConstraint.build(new_expr, self._relop, self._bound)

    def rename(self, mapping: Mapping[Variable, Variable]) -> "LinearConstraint":
        """The atom over renamed variables.

        A renaming that keeps this atom's variables distinct keeps it
        normal — the coefficients, hence their gcd and lcm, are the
        same numbers — except that ``=`` / ``!=`` fix their sign by the
        alphabetically first variable, which may now be another one.
        Only a renaming that merges variables goes through
        :meth:`build` again."""
        coeffs = self._expr._coeffs
        renamed: dict[Variable, Fraction] = {}
        moved = False
        for var, coeff in coeffs.items():
            target = mapping.get(var, var)
            moved = moved or target.name != var.name
            renamed[target] = coeff
        if not moved:
            return self
        if len(renamed) != len(coeffs):
            return LinearConstraint.build(
                self._expr.rename(mapping), self._relop, self._bound)
        bound = self._bound
        if self._relop in (Relop.EQ, Relop.NE) \
                and renamed[min(renamed, key=lambda v: v.name)] < 0:
            renamed = {var: -coeff for var, coeff in renamed.items()}
            bound = -bound
        return LinearConstraint(LinearExpression._normal(renamed),
                                self._relop, bound)

    # -- identity --------------------------------------------------------

    def _key(self):
        items = tuple(sorted(
            (v.name, c) for v, c in self._expr.coefficients.items()))
        return (items, self._relop, self._bound)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearConstraint):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, LinearConstraint):
            return NotImplemented
        return self._key() != other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("LinearConstraint",) + self._key())
        return self._hash

    def __bool__(self) -> bool:
        # Guard against ``if a == b`` style mistakes on expressions: a
        # constraint has no truth value without a variable assignment,
        # except the trivial constant case.
        if self.is_trivial:
            return self.trivial_truth()
        raise TypeError(
            "a LinearConstraint over variables has no boolean value; "
            "use ConjunctiveConstraint(...).is_satisfiable() or holds_at()")

    def sort_key(self) -> tuple:
        """Deterministic ordering key used by canonical forms."""
        items, relop, bound = self._key()
        return (items, relop.value, bound)

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LinearConstraint({self})"

    def __str__(self) -> str:
        return f"{self._expr} {self._relop.value} {format_fraction(self._bound)}"


def _normalizing_scale(values: list[Fraction]) -> Fraction:
    """Positive scale factor making the values integral with gcd 1.

    Only the variable coefficients drive the scale; the bound rides along
    (it is included so the result stays integral when convenient, but a
    non-integral bound is fine).
    """
    numerators = [v.numerator for v in values[:-1] if v != 0]
    denominators = [v.denominator for v in values[:-1]]
    if not numerators:
        return Fraction(1)
    lcm = 1
    for d in denominators:
        lcm = lcm * d // gcd(lcm, d)
    scaled = [abs(n) * (lcm // d) for n, d in
              ((v.numerator, v.denominator) for v in values[:-1]) if n != 0]
    g = 0
    for s in scaled:
        g = gcd(g, s)
    return Fraction(lcm, g if g else 1)


# ---------------------------------------------------------------------------
# Constructor helpers (unambiguous alternatives to operator overloading)
# ---------------------------------------------------------------------------


def Eq(lhs, rhs) -> LinearConstraint:
    """Equality constraint ``lhs = rhs`` (works for two bare Variables,
    where ``==`` means name identity instead)."""
    return LinearConstraint.build(lhs, Relop.EQ, rhs)


def Ne(lhs, rhs) -> LinearConstraint:
    """Disequality constraint ``lhs != rhs``."""
    return LinearConstraint.build(lhs, Relop.NE, rhs)


def Le(lhs, rhs) -> LinearConstraint:
    return LinearConstraint.build(lhs, Relop.LE, rhs)


def Lt(lhs, rhs) -> LinearConstraint:
    return LinearConstraint.build(lhs, Relop.LT, rhs)


def Ge(lhs, rhs) -> LinearConstraint:
    return LinearConstraint.build(lhs, Relop.GE, rhs)


def Gt(lhs, rhs) -> LinearConstraint:
    return LinearConstraint.build(lhs, Relop.GT, rhs)
