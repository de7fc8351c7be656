"""Linear arithmetic constraint atoms — the one module that knows how an
atom is stored.

A *linear arithmetic constraint* in the paper (Section 3.1) has the form::

    r1*x1 + ... + rm*xm  relop  r      relop in {=, <=, >=, <, >, !=}

An atom is stored as its normalized integer row, the first half of the
paper's canonical form: its variables sorted by name with coprime
``int`` coefficients (the non-variable part moved to the bound, which
may stay rational), the relation drawn from ``{=, <=, <, !=}``
(``>=``/``>`` flip on construction), and for the sign-symmetric ``=``
and ``!=`` a positive leading coefficient.  Structurally-equal atoms
therefore compare equal, on a key computed once.  Other modules read
the row through ``terms`` / ``coefficient``; ``expression`` builds a
:class:`LinearExpression` view for arithmetic.  The rest of the
canonical form lives in :mod:`repro.constraints.canonical`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from repro.errors import ConstraintError
from repro.constraints.terms import (
    LinearExpression,
    RationalLike,
    Variable,
    evaluate_terms,
    format_fraction,
    format_terms,
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
    def flipped(self) -> "Relop":
        """The operator with both sides exchanged."""
        return _FLIPPED[self]

    @property
    def negated(self) -> "Relop":
        """The operator of the complementary constraint."""
        return _NEGATED[self]

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


_FLIPPED = {
    Relop.LE: Relop.GE, Relop.GE: Relop.LE,
    Relop.LT: Relop.GT, Relop.GT: Relop.LT,
    Relop.EQ: Relop.EQ, Relop.NE: Relop.NE,
}

_NEGATED = {
    Relop.LE: Relop.GT, Relop.GT: Relop.LE,
    Relop.GE: Relop.LT, Relop.LT: Relop.GE,
    Relop.EQ: Relop.NE, Relop.NE: Relop.EQ,
}

_SIGN_SYMMETRIC = (Relop.EQ, Relop.NE)


class LinearConstraint:
    """A normalized linear arithmetic constraint ``row relop bound``.

    The row is the variables sorted by name with their coprime ``int``
    coefficients; the stored ``relop`` is one of ``=, <=, <, !=``.

    Instances are immutable and hashable; structural equality after
    normalization is what the paper calls "deletion of syntactic
    duplicates".
    """

    __slots__ = ("_vars", "_coeffs", "_relop", "_bound", "_key", "_hash")

    def __init__(self, variables: tuple[Variable, ...],
                 coeffs: tuple[int, ...], relop: Relop, bound: Fraction):
        # Internal constructor over an already normal row: callers
        # should use :meth:`build`.
        self._vars = variables
        self._coeffs = coeffs
        self._relop = relop
        self._bound = bound
        # Names and coefficients interleaved, so keys order exactly as
        # sorted (name, coefficient) pairs do; the bound is a Fraction,
        # which orders by value.
        row = []
        for var, coeff in zip(variables, coeffs):
            row += (var.name, coeff)
        self._key = (tuple(row), relop.value, bound)
        self._hash = hash(self._key)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, lhs, relop: Relop, rhs) -> "LinearConstraint":
        """Build and normalize an atom from arbitrary linear sides."""
        diff = LinearExpression.coerce(lhs) - rhs
        bound = -diff.constant_term
        terms = list(diff)
        if relop is Relop.GE or relop is Relop.GT:
            terms = [(var, -coeff) for var, coeff in terms]
            bound, relop = -bound, _FLIPPED[relop]
        if not terms:
            # Trivial atoms normalize to the canonical TRUE (0 = 0) or
            # FALSE (0 = 1) so that semantically-equal trivia compare
            # equal.
            truth = relop.holds(Fraction(0), bound)
            return cls((), (), Relop.EQ, Fraction(0 if truth else 1))
        variables, fractions = zip(*terms)
        scale = _normalizing_scale(fractions)
        if relop in _SIGN_SYMMETRIC and fractions[0] < 0:
            scale = -scale
        num, den = scale.numerator, scale.denominator
        coeffs = tuple(c.numerator * num // (c.denominator * den)
                       for c in fractions)
        return cls(variables, coeffs, relop, bound * scale)

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Variable, int], ...]:
        """The row: ``(variable, coefficient)`` pairs sorted by name."""
        return tuple(zip(self._vars, self._coeffs))

    def coefficient(self, var: Variable) -> int:
        """The coefficient of ``var`` (0 when it does not occur)."""
        for own, coeff in zip(self._vars, self._coeffs):
            if own == var:
                return coeff
        return 0

    @property
    def expression(self) -> LinearExpression:
        """The row as a :class:`LinearExpression`, built on each access."""
        return LinearExpression(dict(zip(self._vars, self._coeffs)))

    @property
    def relop(self) -> Relop:
        return self._relop

    @property
    def bound(self) -> Fraction:
        return self._bound

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset(self._vars)

    @property
    def is_trivial(self) -> bool:
        """True when the atom mentions no variables (``0 relop c``)."""
        return not self._vars

    def trivial_truth(self) -> bool:
        """Truth value of a trivial atom (raises if not trivial)."""
        if not self.is_trivial:
            raise ConstraintError("atom is not trivial")
        return self._relop.holds(Fraction(0), self._bound)

    def is_strict(self) -> bool:
        return self._relop is Relop.LT

    # -- logical operations ------------------------------------------------

    def negate(self) -> "LinearConstraint":
        """Complement of the atom (always a single atom).

        ``=`` negates to ``!=``; callers that need a strict-inequality
        split of that result use :meth:`split_disequality`.
        """
        return LinearConstraint.build(self.expression, self._relop.negated,
                                      self._bound)

    def split_disequality(self) -> tuple["LinearConstraint", "LinearConstraint"]:
        """``expr != b`` as the disjunction ``expr < b  or  expr > b``."""
        if self._relop is not Relop.NE:
            raise ConstraintError("not a disequality")
        expr = self.expression
        return (LinearConstraint.build(expr, Relop.LT, self._bound),
                LinearConstraint.build(expr, Relop.GT, self._bound))

    def weakened(self) -> "LinearConstraint":
        """The non-strict version of a strict inequality (``<`` -> ``<=``)."""
        if self._relop is Relop.LT:
            return LinearConstraint(self._vars, self._coeffs, Relop.LE,
                                    self._bound)
        return self

    # -- evaluation & substitution ------------------------------------------

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        """Truth of the atom at a concrete rational point."""
        value = evaluate_terms(zip(self._vars, self._coeffs), point)
        return self._relop.holds(value, self._bound)

    def substitute(self, bindings) -> "LinearConstraint":
        new_expr = self.expression.substitute(bindings)
        return LinearConstraint.build(new_expr, self._relop, self._bound)

    def rename(self, mapping: Mapping[Variable, Variable]) -> "LinearConstraint":
        """The atom over renamed variables.

        A renaming that keeps this atom's variables distinct keeps it
        normal — the coefficients are the same numbers — once the row
        is sorted by the new names, except that ``=`` / ``!=`` fix
        their sign by the alphabetically first variable, which may now
        be another one.  Only a renaming that merges variables goes
        through :meth:`build` again."""
        targets = [mapping.get(var, var) for var in self._vars]
        if all(t.name == v.name for t, v in zip(targets, self._vars)):
            return self
        if len({t.name for t in targets}) != len(targets):
            return LinearConstraint.build(
                self.expression.rename(mapping), self._relop, self._bound)
        variables, coeffs = zip(*sorted(zip(targets, self._coeffs),
                                        key=lambda term: term[0].name))
        bound = self._bound
        if self._relop in _SIGN_SYMMETRIC and coeffs[0] < 0:
            coeffs = tuple(-coeff for coeff in coeffs)
            bound = -bound
        return LinearConstraint(variables, coeffs, self._relop, bound)

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearConstraint):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
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
        return self._key

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LinearConstraint({self})"

    def __str__(self) -> str:
        return (f"{format_terms(zip(self._vars, self._coeffs))} "
                f"{self._relop.value} {format_fraction(self._bound)}")


def _normalizing_scale(coeffs: Sequence[Fraction]) -> Fraction:
    """Positive scale factor making the coefficients integral with gcd 1.

    Only the variable coefficients drive the scale; the bound is scaled
    by the same factor and may stay non-integral.
    """
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    g = 0
    for c in coeffs:
        g = gcd(g, c.numerator * (lcm // c.denominator))
    return Fraction(lcm, g)


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
