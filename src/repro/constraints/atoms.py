"""Linear arithmetic constraint atoms and integer rows — the one module
that knows how a row is normalised and combined.

A *linear arithmetic constraint* in the paper (Section 3.1) has the form::

    r1*x1 + ... + rm*xm  relop  r      relop in {=, <=, >=, <, >, !=}

An atom is stored as its normalized integer row, the first half of the
paper's canonical form: its variables sorted by name with coprime
``int`` coefficients (the non-variable part moved to the bound, which
may stay rational), the relation drawn from ``{=, <=, <, !=}``
(``>=``/``>`` flip on construction), and for the sign-symmetric ``=``
and ``!=`` a positive leading coefficient.  Structurally-equal atoms
therefore compare equal, on a key computed once.

A conjunction stores the same rows by column (:data:`ExactRow`).  One
normaliser, :func:`_normal_row`, gives a row its stored form:
:func:`expression_row` clears a :class:`LinearExpression`'s
denominators and calls it (for :meth:`LinearConstraint.build`, user
arithmetic); :func:`named_row` does the same for both LyriC front
ends — the CST text parser and a query's formula atoms — which keep a
term as a name-to-coefficient map plus a constant (:data:`Terms`,
combined by :func:`add_terms`, :func:`scaled_terms` and
:func:`product_terms`); and every row derived from rows — negation
(:func:`negate_row`), disequality split (:func:`split_row`), renaming
(:func:`remap_rows`), combination (:func:`combine_rows`: the
Fourier-Motzkin step, the strict slack) and equality substitution
(:func:`eliminate_row`) — is one integer row operation and the same
normaliser; the atom methods are views of these.  Other modules read an
atom's row through ``terms`` / ``coefficient``; ``expression`` is a
:class:`LinearExpression` view for arithmetic.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Mapping, Sequence

from repro.errors import ConstraintError, NonLinearError
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
        self._key = row_key(variables, (range(len(variables)), coeffs, relop,
                                        bound))
        self._hash = hash(self._key)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, lhs, relop: Relop, rhs) -> "LinearConstraint":
        """Build and normalize an atom from arbitrary linear sides."""
        return cls(*expression_row(lhs, relop, rhs))

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
        """Complement of the atom (always a single atom,
        :func:`negate_row`).

        ``=`` negates to ``!=``; callers that need a strict-inequality
        split of that result use :meth:`split_disequality`.
        """
        return row_atoms(self._vars, [negate_row(self._row())])[0]

    def split_disequality(self) -> tuple["LinearConstraint", "LinearConstraint"]:
        """``expr != b`` as the disjunction ``expr < b  or  expr > b``
        (:func:`split_row`)."""
        if self._relop is not Relop.NE:
            raise ConstraintError("not a disequality")
        return row_atoms(self._vars, split_row(self._row()))

    def weakened(self) -> "LinearConstraint":
        """The non-strict version of a strict inequality (``<`` -> ``<=``)."""
        if self._relop is Relop.LT:
            return LinearConstraint(self._vars, self._coeffs, Relop.LE,
                                    self._bound)
        return self

    def _row(self) -> "ExactRow":
        """The atom's row over its variables as the columns."""
        return (tuple(range(len(self._vars))), self._coeffs, self._relop,
                self._bound)

    # -- evaluation & renaming ----------------------------------------------

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        """Truth of the atom at a concrete rational point."""
        value = evaluate_terms(zip(self._vars, self._coeffs), point)
        return self._relop.holds(value, self._bound)

    def rename(self, mapping: Mapping[Variable, Variable]) -> "LinearConstraint":
        """The atom over renamed variables: the coefficients of variables
        renamed to one name add up, and the row, re-sorted by the new
        names, is normalised again (a renaming that keeps the variables
        distinct can still move the ``=`` / ``!=`` lead sign)."""
        moved = [mapping.get(var, var) for var in self._vars]
        if all(new.name == var.name for new, var in zip(moved, self._vars)):
            return self
        columns, (target,) = column_union(moved)
        return row_atoms(columns, remap_rows(
            [(tuple(range(len(target))), self._coeffs, self._relop,
              self._bound)],
            target))[0]

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
        return format_row(self._vars, self._row())


#: One row of a system: the ascending indices of its columns in the
#: system's variables sorted by name, their coprime ``int``
#: coefficients, its relop (``=``, ``<=``, ``<`` or ``!=``) and its
#: rational bound.  A row without columns is TRUE or :data:`FALSE_ROW`.
ExactRow = tuple[tuple[int, ...], tuple[int, ...], Relop, Fraction]


def _normal_row(cols: tuple, coeffs: tuple[int, ...], relop: Relop,
                bound: Fraction) -> tuple:
    """The stored form of the row ``coeffs . cols relop bound`` — the
    one normaliser.

    ``cols`` are the row's ascending column keys (an atom's variables,
    or a system's column indices), ``coeffs`` their ``int``
    coefficients, none zero.  ``>=`` / ``>`` flip; a row without
    columns becomes the canonical TRUE (``0 = 0``) or FALSE (``0 = 1``),
    so that semantically-equal trivia compare equal; otherwise the row
    and the bound are divided by the row's gcd, negated for ``=`` /
    ``!=`` when the leading coefficient is negative.
    """
    if relop is Relop.GE or relop is Relop.GT:
        coeffs = tuple([-coeff for coeff in coeffs])
        bound, relop = -bound, _FLIPPED[relop]
    if not cols:
        return (), (), Relop.EQ, _ZERO if relop.holds(_ZERO, bound) else _ONE
    g = gcd(*coeffs)
    if relop in _SIGN_SYMMETRIC and coeffs[0] < 0:
        g = -g
    if g != 1:
        coeffs = tuple([coeff // g for coeff in coeffs])
        bound = bound / g
    return cols, coeffs, relop, bound


#: The canonical false row ``0 = 1``.
FALSE_ROW: ExactRow = ((), (), Relop.EQ, _ONE)


def expression_row(lhs, relop: Relop, rhs) -> tuple:
    """The normal row of ``lhs relop rhs`` over its variables sorted by
    name: ``lhs - rhs`` with its denominators cleared."""
    diff = LinearExpression.coerce(lhs) - rhs
    terms = list(diff)
    lcm = 1
    for _, coeff in terms:
        lcm = lcm * coeff.denominator // gcd(lcm, coeff.denominator)
    return _normal_row(
        tuple([var for var, _ in terms]),
        tuple([coeff.numerator * (lcm // coeff.denominator)
               for _, coeff in terms]),
        relop, -diff.constant_term * lcm)


#: A linear term: coefficients by variable name (none zero) and a
#: constant.
Terms = tuple[dict[str, Fraction | int], Fraction | int]


def add_terms(coeffs: dict, other: dict, sign: int) -> None:
    """Add ``sign`` times ``other``'s coefficients into ``coeffs``; a
    coefficient that cancels leaves."""
    for name, coeff in other.items():
        total = coeffs.get(name, 0) + sign * coeff
        if total:
            coeffs[name] = total
        else:
            del coeffs[name]


def scaled_terms(coeffs: dict, constant, scalar) -> Terms:
    """``scalar`` times a term; a zero scalar leaves no coefficient."""
    if not scalar:
        return {}, 0
    return ({name: coeff * scalar for name, coeff in coeffs.items()},
            constant * scalar)


def product_terms(left: Terms, right: Terms) -> Terms:
    """``left * right``, linear only when one of them is constant."""
    (coeffs, constant), (other, scalar) = left, right
    if other:
        if coeffs:
            raise NonLinearError(
                "product of two non-constant expressions is not linear")
        coeffs, constant, scalar = other, scalar, constant
    return scaled_terms(coeffs, constant, scalar)


def named_row(left: Terms, relop: Relop, right: Terms) -> tuple:
    """The normal row of ``left relop right`` over its variables sorted
    by name (what :func:`index_named` reads): ``left - right`` with its
    denominators cleared, as :func:`expression_row` gives it."""
    (coeffs, constant), (other, other_constant) = left, right
    diff = dict(coeffs)
    add_terms(diff, other, -1)
    names = sorted(diff)
    values = [diff[name] for name in names]
    lcm = 1
    for coeff in values:
        lcm = lcm * coeff.denominator // gcd(lcm, coeff.denominator)
    return _normal_row(
        tuple(map(Variable, names)),
        tuple([coeff.numerator * (lcm // coeff.denominator)
               for coeff in values]),
        relop, Fraction((other_constant - constant) * lcm))


def row_key(columns: Sequence[Variable], row: ExactRow) -> tuple:
    """The :meth:`LinearConstraint.sort_key` of ``row`` over
    ``columns``: names and coefficients interleaved, so keys order
    exactly as sorted (name, coefficient) pairs do, then the relop and
    the bound (a Fraction, which orders by value)."""
    cols, coeffs, relop, bound = row
    return (tuple(chain.from_iterable(
        zip([columns[j].name for j in cols], coeffs))), relop.value, bound)


def format_row(columns: Sequence[Variable], row: ExactRow) -> str:
    """``row`` over ``columns`` printed as its atom prints."""
    cols, coeffs, relop, bound = row
    return (f"{format_terms(zip([columns[j] for j in cols], coeffs))} "
            f"{relop.value} {format_fraction(bound)}")


def negate_row(row: ExactRow) -> ExactRow:
    """The complement of ``row``: one row, ``=`` negating to ``!=``."""
    cols, coeffs, relop, bound = row
    return _normal_row(cols, coeffs, _NEGATED[relop], bound)


def split_row(row: ExactRow) -> tuple[ExactRow, ExactRow]:
    """The disequality ``row`` as its strict rows ``<`` and ``>``."""
    cols, coeffs, _, bound = row
    return (_normal_row(cols, coeffs, Relop.LT, bound),
            _normal_row(cols, coeffs, Relop.GT, bound))


def negated_rows(row: ExactRow) -> tuple[ExactRow, ...]:
    """The complement of ``row`` as a disjunction of ``=``, ``<=`` and
    ``<`` rows: its negation, split when that is a disequality."""
    negated = negate_row(row)
    return split_row(negated) if negated[2] is Relop.NE else (negated,)


def _summed(terms: Iterable[tuple[int, int]], relop: Relop,
            bound: Fraction) -> ExactRow:
    """The normal row of ``(column, coefficient)`` terms, the
    coefficients of one column added up; columns whose sum is 0 drop."""
    merged: dict[int, int] = {}
    for j, coeff in terms:
        merged[j] = merged.get(j, 0) + coeff
    pairs = sorted(item for item in merged.items() if item[1])
    return _normal_row(tuple([j for j, _ in pairs]),
                       tuple([coeff for _, coeff in pairs]), relop, bound)


def combine_rows(k: int, row: ExactRow, m: int, other: ExactRow,
                 relop: Relop) -> ExactRow:
    """The normal row ``k*row + m*other relop k*bound + m*bound'``, for
    nonzero ``int`` factors."""
    return _summed(chain(zip(row[0], [k * coeff for coeff in row[1]]),
                         zip(other[0], [m * coeff for coeff in other[1]])),
                   relop, k * row[3] + m * other[3])


def row_coefficient(row: ExactRow, col: int) -> int:
    """The coefficient of column ``col`` in ``row`` (0 when absent)."""
    cols = row[0]
    return row[1][cols.index(col)] if col in cols else 0


def eliminate_row(row: ExactRow, col: int, pivot: ExactRow) -> ExactRow:
    """``row`` with column ``col`` substituted away through the equality
    row ``pivot`` (``p`` its coefficient of ``col``): the combination
    ``|p|*row - sign(p)*c*pivot``; the row itself when its coefficient
    ``c`` of ``col`` is 0."""
    c = row_coefficient(row, col)
    if not c:
        return row
    p = row_coefficient(pivot, col)
    return combine_rows(abs(p), row, -c if p > 0 else c, pivot, row[2])


def move_columns(rows: Iterable[ExactRow], target) -> list[ExactRow]:
    """Rows under a column map that keeps the order of the columns they
    use (column ``j`` to ``target[j]``): only the indices change."""
    move = target.__getitem__
    return [(tuple(map(move, cols)), coeffs, relop, bound)
            for cols, coeffs, relop, bound in rows]


def remap_rows(rows: Iterable[ExactRow], target: Sequence[int]
               ) -> list[ExactRow]:
    """Rows under the column map ``target`` a renaming makes.  One that
    keeps the columns' order only moves them (:func:`move_columns`);
    otherwise each row's coefficients are summed per new column and
    normalised again — distinct columns can still change the ``=`` /
    ``!=`` lead sign, merged ones the gcd, or leave no column at all."""
    if all(a < b for a, b in zip(target, target[1:])):
        return move_columns(rows, target)
    return [_summed(zip([target[j] for j in cols], coeffs), relop, bound)
            for cols, coeffs, relop, bound in rows]


def column_union(*column_lists: Sequence[Variable]
                 ) -> tuple[tuple[Variable, ...], list[list[int]]]:
    """The variables of ``column_lists`` sorted by name — a system's
    columns — and, for each list, the column of each of its variables."""
    by_name = {var.name: var for columns in column_lists for var in columns}
    names = sorted(by_name)
    index = dict(zip(names, range(len(names))))
    return (tuple([by_name[name] for name in names]),
            [[index[var.name] for var in columns] for columns in column_lists])


def index_atoms(atoms: Sequence[LinearConstraint]
                ) -> tuple[tuple[Variable, ...], list[ExactRow]]:
    """The columns of a system of atoms and each atom's row over them."""
    return index_named([(atom._vars, atom._coeffs, atom._relop, atom._bound)
                        for atom in atoms])


def index_named(named: Sequence[tuple]
                ) -> tuple[tuple[Variable, ...], list[ExactRow]]:
    """:func:`index_atoms` of rows over their own variables (what
    :func:`expression_row` gives)."""
    if len(named) == 1:         # a row's variables are its columns
        variables, coeffs, relop, bound = named[0]
        return variables, [(tuple(range(len(variables))), coeffs, relop,
                            bound)]
    columns, targets = column_union(*[row[0] for row in named])
    return columns, [(tuple(target), coeffs, relop, bound)
                     for target, (_, coeffs, relop, bound)
                     in zip(targets, named)]


def row_atoms(columns: tuple[Variable, ...], rows: Iterable[ExactRow]
              ) -> tuple[LinearConstraint, ...]:
    """The atoms of ``rows`` over ``columns``, in order."""
    column = columns.__getitem__
    return tuple([LinearConstraint(tuple(map(column, cols)), coeffs, relop,
                                   bound)
                  for cols, coeffs, relop, bound in rows])


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
