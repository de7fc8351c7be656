"""Conjunctive constraints: conjunctions of linear arithmetic atoms.

A :class:`ConjunctiveConstraint` geometrically denotes a convex polyhedron
(possibly with faces removed by strict atoms and hyperplanes removed by
disequalities).  It is the base family of Section 3.1 of the paper; the
disjunctive and existential families are built on top of it.

A conjunction is stored as its integer rows (``columns`` and ``rows``);
every operation on it, printing and the exact solver included, is a row
operation.  Its atoms are built on first read, for the public API.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.constraints.atoms import (
    FALSE_ROW,
    ExactRow,
    LinearConstraint,
    Relop,
    column_union,
    eliminate_row,
    format_row,
    index_atoms,
    index_named,
    move_columns,
    remap_rows,
    row_atoms,
    row_key,
)
from repro.constraints.terms import RationalLike, Variable, to_fraction
from repro.errors import InfeasibleError

_ZERO = Fraction(0)
_ROW_KEY = itemgetter(0, 1)
_ROW_COLUMNS = itemgetter(0)
_TRIVIAL_KEY = ((), ())
#: The columns and rows of the canonical FALSE conjunction — kept
#: trivial-false on purpose so a collapsed conjunction still carries one
#: row to print and hash.
_FALSE = ((), (FALSE_ROW,))


def clean_rows(columns: tuple[Variable, ...], rows: Sequence[ExactRow]
               ) -> tuple[tuple[Variable, ...], Sequence[ExactRow]] | None:
    """A conjunction's cleaning of ``rows`` over ``columns``: trivially
    true rows drop, a row equal to an earlier one drops (the first
    occurrence stays), and the columns no kept row uses drop out.
    Returns the columns and the kept rows, in order; ``None`` when a row
    is trivially false."""
    # Rows are told apart by their (columns, coefficients) pair, which
    # hashes without ``Fraction`` or ``Enum`` work; only a row whose
    # pair an earlier row has is compared, or hashed, whole.  When no
    # two rows share a pair and none is trivial, every row is kept.
    kept: Sequence[ExactRow] = rows
    if len(rows) == 1 and 0 < len(rows[0][0]) == len(columns):
        return columns, kept        # one row on every column
    keys = list(map(_ROW_KEY, rows))
    distinct = set(keys)
    if len(distinct) < len(keys) or _TRIVIAL_KEY in distinct:
        first: dict[tuple, ExactRow] = {}
        more: set[ExactRow] = set()
        kept = []
        for key, row in zip(keys, rows):
            if key == _TRIVIAL_KEY:
                if not row[2].holds(_ZERO, row[3]):
                    return None
                continue
            earlier = first.get(key)
            if earlier is None:
                first[key] = row
            elif row == earlier:
                continue
            else:
                size = len(more)
                more.add(row)           # hashes the row once
                if len(more) == size:
                    continue
            kept.append(row)
    used = set().union(*map(_ROW_COLUMNS, kept))
    if len(used) < len(columns):
        order = sorted(used)
        columns = tuple([columns[j] for j in order])
        kept = move_columns(kept, dict(zip(order, range(len(order)))))
    return columns, kept


class ConjunctiveConstraint:
    """An immutable conjunction of linear arithmetic atoms, stored as
    :attr:`columns` and :attr:`rows`.

    Trivially-true atoms are dropped at construction; a trivially-false
    atom collapses the whole conjunction to the canonical unsatisfiable
    conjunction ``FALSE``.  Syntactic duplicates are removed (one of the
    paper's two always-on simplifications).
    """

    __slots__ = ("_columns", "_rows", "_atoms", "_hash", "_text")

    def __init__(self, atoms: Iterable[LinearConstraint] = ()):
        atoms = tuple(atoms)
        for atom in atoms:
            if not isinstance(atom, LinearConstraint):
                raise TypeError(f"expected LinearConstraint, got {atom!r}")
        self._store(*index_atoms(atoms))

    def _store(self, columns: tuple[Variable, ...],
               rows: Sequence[ExactRow]) -> None:
        """Hold ``rows`` over ``columns`` after :func:`clean_rows`."""
        columns, kept = clean_rows(columns, rows) or _FALSE
        self._columns, self._rows = columns, tuple(kept)
        self._atoms: tuple[LinearConstraint, ...] | None = None
        self._hash: int | None = None
        self._text: str | None = None

    @classmethod
    def from_rows(cls, columns: tuple[Variable, ...],
                  rows: Sequence[ExactRow]) -> "ConjunctiveConstraint":
        """The conjunction of ``rows`` over ``columns``, cleaned as a
        construction is (:func:`clean_rows`)."""
        conj = cls.__new__(cls)
        conj._store(columns, rows)
        return conj

    @classmethod
    def from_named(cls, named: Sequence[tuple]) -> "ConjunctiveConstraint":
        """The conjunction of rows over their own variables (what
        :func:`~repro.constraints.atoms.named_row` gives), in order."""
        return cls.from_rows(*index_named(named))

    # -- constructors ---------------------------------------------------

    @classmethod
    def true(cls) -> "ConjunctiveConstraint":
        """The empty conjunction (all of space)."""
        return _TRUE

    @classmethod
    def false(cls) -> "ConjunctiveConstraint":
        """The canonical unsatisfiable conjunction."""
        return cls.from_rows(*_FALSE)

    @classmethod
    def of(cls, *atoms: LinearConstraint) -> "ConjunctiveConstraint":
        return cls(atoms)

    # -- inspection -------------------------------------------------------

    @property
    def columns(self) -> tuple[Variable, ...]:
        """The variables, sorted by name; every one occurs in a row."""
        return self._columns

    @property
    def rows(self) -> tuple[ExactRow, ...]:
        """The integer rows over :attr:`columns`, in conjunction order."""
        return self._rows

    @property
    def atoms(self) -> tuple[LinearConstraint, ...]:
        """The rows as atoms, in conjunction order — built on first read,
        for the public API."""
        if self._atoms is None:
            self._atoms = row_atoms(self._columns, self._rows)
        return self._atoms

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset(self._columns)

    def is_true(self) -> bool:
        """Syntactically the empty conjunction."""
        return not self._rows

    def is_syntactically_false(self) -> bool:
        # A cleaned conjunction holds no trivial row but FALSE's.
        return len(self._rows) == 1 and not self._rows[0][0]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[LinearConstraint]:
        return iter(self.atoms)

    def equalities(self) -> tuple[LinearConstraint, ...]:
        return tuple(a for a in self.atoms if a.relop is Relop.EQ)

    def inequalities(self) -> tuple[LinearConstraint, ...]:
        return tuple(a for a in self.atoms
                     if a.relop in (Relop.LE, Relop.LT))

    def disequalities(self) -> tuple[LinearConstraint, ...]:
        return tuple(a for a in self.atoms if a.relop is Relop.NE)

    # -- logical operations --------------------------------------------------

    def conjoin(self, *others: "ConjunctiveConstraint | LinearConstraint"
                ) -> "ConjunctiveConstraint":
        """Conjunction (geometric intersection) with one or more others:
        the column lists merge, and the rows follow in order."""
        parts = [part for part in (self, *[
            ConjunctiveConstraint((other,))
            if isinstance(other, LinearConstraint) else other
            for other in others]) if part._rows]
        if len(parts) < 2:
            return parts[0] if parts else self
        columns, targets = column_union(*[part._columns for part in parts])
        rows = [row for part, target in zip(parts, targets)
                for row in move_columns(part._rows, target)]
        return ConjunctiveConstraint.from_rows(columns, rows)

    __and__ = conjoin

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        """Membership test of a concrete rational point."""
        frozen = {v: to_fraction(c) for v, c in point.items()}
        return all(atom.holds_at(frozen) for atom in self.atoms)

    def rename(self, mapping: Mapping[Variable, Variable]
               ) -> "ConjunctiveConstraint":
        """The conjunction over renamed variables: a column remap of its
        rows (:func:`~repro.constraints.atoms.remap_rows`), cleaned as a
        construction is — renaming two variables to one can make rows
        trivial or equal."""
        moved = [mapping.get(var, var) for var in self._columns]
        if all(new.name == var.name
               for new, var in zip(moved, self._columns)):
            return self
        columns, (target,) = column_union(moved)
        return ConjunctiveConstraint.from_rows(
            columns, remap_rows(self._rows, target))

    # -- satisfiability / entailment (delegated) --------------------------------

    def is_satisfiable(self, ctx=None) -> bool:
        from repro.constraints import satisfiability
        return satisfiability.is_satisfiable(self, ctx)

    def sample_point(self, ctx=None) -> Mapping[Variable, Fraction] | None:
        from repro.constraints import satisfiability
        return satisfiability.sample_point(self, ctx)

    def entails(self, other: "ConjunctiveConstraint") -> bool:
        from repro.constraints import implication
        return implication.conjunctive_entails_conjunctive(self, other)

    # -- equality elimination ----------------------------------------------------

    def eliminate_equalities(self, keep: frozenset[Variable] | None = None
                             ) -> "ConjunctiveConstraint":
        """Substitute equalities out by Gaussian elimination.

        Each equality row is solved for its first column (by name) not
        in ``keep`` and substituted into the remaining rows.  The result
        is equisatisfiable and, restricted to the surviving variables,
        equivalent; it is used to shrink systems before Fourier-Motzkin
        or simplex runs.  Equalities purely over ``keep`` variables are
        retained.
        """
        keep = keep or frozenset()
        free = [var not in keep for var in self._columns]
        rows = list(self._rows)
        changed = True
        while changed:
            changed = False
            for i, pivot in enumerate(rows):
                if pivot[2] is not Relop.EQ:
                    continue
                col = next((j for j in pivot[0] if free[j]), None)
                if col is None:
                    continue
                rows = [eliminate_row(row, col, pivot)
                        for row in rows[:i] + rows[i + 1:]]
                changed = True
                break
        return ConjunctiveConstraint.from_rows(self._columns, rows)

    # -- variable bounds -----------------------------------------------------------

    def variable_bounds(self, var: Variable
                        ) -> tuple[Fraction | None, Fraction | None]:
        """Exact (min, max) of ``var`` over the region — of its closure,
        for strict rows; None = unbounded.

        Raises :class:`InfeasibleError` on an unsatisfiable region.
        """
        from repro.constraints import lp
        if not self.is_satisfiable():
            raise InfeasibleError("the region is empty")
        lo = lp.minimize(var.as_expression(), self)
        hi = lp.maximize(var.as_expression(), self)
        return lo.value if lo.is_optimal else None, \
            hi.value if hi.is_optimal else None

    # -- identity --------------------------------------------------------------------

    def sorted_rows(self) -> list[ExactRow]:
        """The rows in canonical order, that of their atoms'
        ``sort_key`` (:func:`~repro.constraints.atoms.row_key`)."""
        return sorted(self._rows, key=partial(row_key, self._columns))

    def __eq__(self, other: object) -> bool:
        """Equal column names and the same set of rows."""
        if not isinstance(other, ConjunctiveConstraint):
            return NotImplemented
        return self._columns == other._columns \
            and len(self._rows) == len(other._rows) \
            and (self._rows == other._rows
                 or set(self._rows) == set(other._rows))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("ConjunctiveConstraint",
                               tuple([var.name for var in self._columns]),
                               frozenset(self._rows)))
        return self._hash

    def __repr__(self) -> str:
        return f"ConjunctiveConstraint({self})"

    def __str__(self) -> str:
        # Printed from the rows once: a stored object prints often.
        if self._text is None:
            self._text = "FALSE" if self.is_syntactically_false() \
                else " and ".join([format_row(self._columns, row)
                                   for row in self.sorted_rows()]) or "TRUE"
        return self._text


#: The empty conjunction :meth:`ConjunctiveConstraint.true` gives.
_TRUE = ConjunctiveConstraint(())
