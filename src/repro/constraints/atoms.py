"""Linear arithmetic constraint atoms — the one module that knows how an
atom is stored, normalised and combined.

A *linear arithmetic constraint* in the paper (Section 3.1) has the form::

    r1*x1 + ... + rm*xm  relop  r      relop in {=, <=, >=, <, >, !=}

An atom is stored as its normalized integer row, the first half of the
paper's canonical form: its variables sorted by name with coprime
``int`` coefficients (the non-variable part moved to the bound, which
may stay rational), the relation drawn from ``{=, <=, <, !=}``
(``>=``/``>`` flip on construction), and for the sign-symmetric ``=``
and ``!=`` a positive leading coefficient.  Structurally-equal atoms
therefore compare equal, on a key computed once.

One normaliser, :func:`_normal_row`, maps an integer row to that
stored representative.  :meth:`LinearConstraint.build` clears the
denominators of a :class:`LinearExpression` and calls it; every atom
derived from stored atoms — a negation, a disequality split, a
renaming, a row combination (:meth:`LinearConstraint.combine`: the
Fourier-Motzkin step and the strict-inequality slack) and an equality
substitution (:meth:`LinearConstraint.eliminate`) — is one integer row
operation followed by the same normaliser, so it is the atom the
expression arithmetic would build.  Other modules read the row through
``terms`` / ``coefficient``; ``expression`` builds a
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

_ZERO, _ONE = Fraction(0), Fraction(1)


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
        terms = list(diff)
        lcm = 1
        for _, coeff in terms:
            lcm = lcm * coeff.denominator // gcd(lcm, coeff.denominator)
        row = [(var, coeff.numerator * (lcm // coeff.denominator))
               for var, coeff in terms]
        return _normal_row(row, relop, -diff.constant_term * lcm)

    def combine(self, k: int, other: "LinearConstraint", m: int,
                relop: Relop) -> "LinearConstraint":
        """The atom ``k*row + m*row' relop k*bound + m*bound'`` over this
        atom's row and ``other``'s, for nonzero ``int`` factors: the two
        sorted rows merge by name, and coefficients that cancel drop."""
        row = []
        own, theirs = self._vars, other._vars
        i = j = 0
        while i < len(own) and j < len(theirs):
            a, b = own[i].name, theirs[j].name
            if a < b:
                row.append((own[i], k * self._coeffs[i]))
                i += 1
            elif b < a:
                row.append((theirs[j], m * other._coeffs[j]))
                j += 1
            else:
                coeff = k * self._coeffs[i] + m * other._coeffs[j]
                if coeff:
                    row.append((own[i], coeff))
                i += 1
                j += 1
        row += [(var, k * c) for var, c in zip(own[i:], self._coeffs[i:])]
        row += [(var, m * c)
                for var, c in zip(theirs[j:], other._coeffs[j:])]
        return _normal_row(row, relop, k * self._bound + m * other._bound)

    def eliminate(self, var: Variable,
                  pivot: "LinearConstraint") -> "LinearConstraint":
        """This atom with ``var`` substituted away through the equality
        ``pivot`` (``p*var + ... = e``): the combination
        ``|p|*self - sign(p)*c*pivot``, where ``c`` is this atom's
        coefficient of ``var``; the atom itself when ``c`` is 0."""
        if pivot._relop is not Relop.EQ:
            raise ConstraintError("can only solve equalities")
        p = pivot.coefficient(var)
        if p == 0:
            raise ConstraintError(f"{var} does not occur in {pivot}")
        c = self.coefficient(var)
        if c == 0:
            return self
        return self.combine(abs(p), pivot, -c if p > 0 else c, self._relop)

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
        return _normal_row(self.terms, self._relop.negated, self._bound)

    def split_disequality(self) -> tuple["LinearConstraint", "LinearConstraint"]:
        """``expr != b`` as the disjunction ``expr < b  or  expr > b``."""
        if self._relop is not Relop.NE:
            raise ConstraintError("not a disequality")
        row = self.terms
        return (_normal_row(row, Relop.LT, self._bound),
                _normal_row(row, Relop.GT, self._bound))

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
        """The atom over renamed variables: the coefficients of variables
        renamed to one name add up, and the row, re-sorted by the new
        names, is normalised again (a renaming that keeps the variables
        distinct can still move the ``=`` / ``!=`` lead sign)."""
        targets = [mapping.get(var, var) for var in self._vars]
        if all(t.name == v.name for t, v in zip(targets, self._vars)):
            return self
        merged: dict[str, tuple[Variable, int]] = {}
        for target, coeff in zip(targets, self._coeffs):
            prior = merged.get(target.name)
            merged[target.name] = (target,
                                   coeff + prior[1] if prior else coeff)
        row = [term for _, term in sorted(merged.items()) if term[1]]
        return _normal_row(row, self._relop, self._bound)

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


def _normal_row(row: Sequence[tuple[Variable, int]], relop: Relop,
                bound: Fraction) -> LinearConstraint:
    """The stored atom of ``row relop bound`` — the one normaliser.

    ``row`` is ``(variable, int)`` pairs sorted by name with no zero
    coefficient.  ``>=`` / ``>`` flip; a row without variables becomes
    the canonical TRUE (``0 = 0``) or FALSE (``0 = 1``), so that
    semantically-equal trivia compare equal; otherwise the row and the
    bound are divided by the row's gcd, negated for ``=`` / ``!=`` when
    the leading coefficient is negative.
    """
    if relop is Relop.GE or relop is Relop.GT:
        row = [(var, -coeff) for var, coeff in row]
        bound, relop = -bound, _FLIPPED[relop]
    if not row:
        truth = relop.holds(_ZERO, bound)
        return LinearConstraint((), (), Relop.EQ, _ZERO if truth else _ONE)
    variables, coeffs = zip(*row)
    g = 0
    for coeff in coeffs:
        g = gcd(g, coeff)
    if relop in _SIGN_SYMMETRIC and coeffs[0] < 0:
        g = -g
    if g != 1:
        coeffs = tuple(coeff // g for coeff in coeffs)
        bound = bound / g
    return LinearConstraint(variables, coeffs, relop, bound)


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
