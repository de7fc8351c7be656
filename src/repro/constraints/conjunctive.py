"""Conjunctive constraints: conjunctions of linear arithmetic atoms.

A :class:`ConjunctiveConstraint` geometrically denotes a convex polyhedron
(possibly with faces removed by strict atoms and hyperplanes removed by
disequalities).  It is the base family of Section 3.1 of the paper; the
disjunctive and existential families are built on top of it.

A conjunction is stored as its integer rows (``columns`` and ``rows``);
every operation on it is a row operation, and its atoms are a view.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.constraints.atoms import (
    FALSE_ROW,
    ExactRow,
    LinearConstraint,
    Relop,
    column_union,
    eliminate_row,
    index_atoms,
    move_columns,
    remap_rows,
    row_atoms,
)
from repro.constraints.terms import RationalLike, Variable, to_fraction

_ZERO = Fraction(0)
_ROW_KEY = itemgetter(0, 1)
_ROW_COLUMNS = itemgetter(0)
_TRIVIAL_KEY = ((), ())

#: The canonical false atom ``0 = 1`` — kept trivial-false on purpose so a
#: collapsed conjunction still carries one row to print and hash.
_FALSE_ATOM = LinearConstraint.build(0, Relop.EQ, 1)
#: The columns, rows and atoms of the canonical FALSE conjunction.
_FALSE = ((), (FALSE_ROW,), (_FALSE_ATOM,))


def clean_rows(columns: tuple[Variable, ...], rows: Sequence[ExactRow]
               ) -> tuple[tuple[Variable, ...], Sequence[ExactRow],
                          Sequence[int]] | None:
    """A conjunction's cleaning of ``rows`` over ``columns``: trivially
    true rows drop, a row equal to an earlier one drops (the first
    occurrence stays), and the columns no kept row uses drop out.
    Returns the columns, the kept rows and each kept row's position in
    ``rows``; ``None`` when a row is trivially false."""
    # Rows are told apart by their (columns, coefficients) pair, which
    # hashes without ``Fraction`` or ``Enum`` work; only a row whose
    # pair an earlier row has is compared, or hashed, whole.  When no
    # two rows share a pair and none is trivial, every row is kept.
    kept: Sequence[ExactRow] = rows
    positions: Sequence[int] = range(len(rows))
    if len(rows) == 1 and 0 < len(rows[0][0]) == len(columns):
        return columns, kept, positions     # one row on every column
    keys = list(map(_ROW_KEY, rows))
    distinct = set(keys)
    if len(distinct) < len(keys) or _TRIVIAL_KEY in distinct:
        first: dict[tuple, ExactRow] = {}
        more: set[ExactRow] = set()
        where: list[int] = []
        for i, key in enumerate(keys):
            row = rows[i]
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
            where.append(i)
        kept, positions = [rows[i] for i in where], where
    used = set().union(*map(_ROW_COLUMNS, kept))
    if len(used) < len(columns):
        order = sorted(used)
        columns = tuple([columns[j] for j in order])
        kept = move_columns(kept, dict(zip(order, range(len(order)))))
    return columns, kept, positions


class ConjunctiveConstraint:
    """An immutable conjunction of linear arithmetic atoms, stored as
    :attr:`columns` and :attr:`rows`.

    Trivially-true atoms are dropped at construction; a trivially-false
    atom collapses the whole conjunction to the canonical unsatisfiable
    conjunction ``FALSE``.  Syntactic duplicates are removed (one of the
    paper's two always-on simplifications).
    """

    __slots__ = ("_columns", "_rows", "_atoms", "_hash")

    def __init__(self, atoms: Iterable[LinearConstraint] = ()):
        atoms = tuple(atoms)
        for atom in atoms:
            if not isinstance(atom, LinearConstraint):
                raise TypeError(f"expected LinearConstraint, got {atom!r}")
        self._store(*index_atoms(atoms), atoms)

    def _store(self, columns: tuple[Variable, ...],
               rows: Sequence[ExactRow],
               atoms: tuple[LinearConstraint, ...] | None = None) -> None:
        """Hold ``rows`` over ``columns`` after :func:`clean_rows`, with
        their atoms as the view when given."""
        cleaned = clean_rows(columns, rows)
        kept: Sequence[ExactRow]
        if cleaned is None:
            columns, kept, atoms = _FALSE
        else:
            columns, kept, positions = cleaned
            if atoms is not None and len(positions) < len(atoms):
                atoms = tuple([atoms[i] for i in positions])
        self._columns, self._rows, self._atoms = columns, tuple(kept), atoms
        self._hash: int | None = None

    @classmethod
    def from_rows(cls, columns: tuple[Variable, ...],
                  rows: Sequence[ExactRow],
                  atoms: tuple[LinearConstraint, ...] | None = None
                  ) -> "ConjunctiveConstraint":
        """The conjunction of ``rows`` over ``columns``, cleaned as a
        construction is (:func:`clean_rows`)."""
        conj = cls.__new__(cls)
        conj._store(columns, rows, atoms)
        return conj

    # -- constructors ---------------------------------------------------

    @classmethod
    def true(cls) -> "ConjunctiveConstraint":
        """The empty conjunction (all of space)."""
        return _TRUE

    @classmethod
    def false(cls) -> "ConjunctiveConstraint":
        """The canonical unsatisfiable conjunction."""
        return cls((_FALSE_ATOM,))

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
        """The rows as atoms, in conjunction order (built once)."""
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
        views = [part._atoms for part in parts if part._atoms is not None]
        atoms = sum(views, ()) if len(views) == len(parts) else None
        return ConjunctiveConstraint.from_rows(columns, rows, atoms)

    __and__ = conjoin

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        """Membership test of a concrete rational point."""
        frozen = {v: to_fraction(c) for v, c in point.items()}
        return all(atom.holds_at(frozen) for atom in self.atoms)

    def substitute(self, bindings) -> "ConjunctiveConstraint":
        return ConjunctiveConstraint(
            atom.substitute(bindings) for atom in self.atoms)

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
        """Exact (min, max) of ``var`` over the region; None = unbounded.

        Raises :class:`ConstraintError` on an unsatisfiable region.
        """
        from repro.constraints import lp
        lo = lp.minimize(var.as_expression(), self)
        hi = lp.maximize(var.as_expression(), self)
        return lo.value if lo.is_optimal else None, \
            hi.value if hi.is_optimal else None

    # -- identity --------------------------------------------------------------------

    def sorted_atoms(self) -> tuple[LinearConstraint, ...]:
        return tuple(sorted(self.atoms, key=LinearConstraint.sort_key))

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
        if not self._rows:
            return "TRUE"
        if self.is_syntactically_false():
            return "FALSE"
        return " and ".join(str(a) for a in self.sorted_atoms())


#: The empty conjunction :meth:`ConjunctiveConstraint.true` gives.
_TRUE = ConjunctiveConstraint(())
