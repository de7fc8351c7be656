"""Disjunctive constraints: disjunctions of conjunctions (DNF).

Per Section 3.1 a *disjunctive constraint* is built from conjunctive
constraints and their negations, closed under ``or``, ``and``, and the
restricted projection (eliminate one / keep one variable).  Geometrically
it denotes a finite union of convex polyhedra.

Always-on simplifications (the paper's choice, since full redundancy
detection among disjuncts is co-NP-complete): deletion of syntactically
false disjuncts and of syntactic duplicates.  LP-based deletion of
*inconsistent* (unsatisfiable) disjuncts lives in
:mod:`repro.constraints.canonical`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from repro.errors import ConstraintFamilyError
from repro.constraints import projection as projection_mod
from repro.constraints.atoms import LinearConstraint, Relop, row_key, split_row
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.implication import negated_branches
from repro.constraints.terms import RationalLike, Variable
from repro.runtime.context import current_context


class DisjunctiveConstraint:
    """An immutable disjunction of :class:`ConjunctiveConstraint`.

    The empty disjunction is FALSE; a disjunction containing the empty
    conjunction is TRUE (and collapses to it).
    """

    __slots__ = ("_disjuncts", "_hash")

    def __init__(self, disjuncts: Iterable[ConjunctiveConstraint] = ()):
        cleaned: list[ConjunctiveConstraint] = []
        seen: set[ConjunctiveConstraint] = set()
        for d in disjuncts:
            if isinstance(d, LinearConstraint):
                d = ConjunctiveConstraint.of(d)
            if not isinstance(d, ConjunctiveConstraint):
                raise TypeError(
                    f"expected ConjunctiveConstraint, got {d!r}")
            if d.is_syntactically_false():
                continue
            if d.is_true():
                cleaned = [ConjunctiveConstraint.true()]
                seen = {cleaned[0]}
                break
            if d not in seen:
                seen.add(d)
                cleaned.append(d)
        self._disjuncts = tuple(cleaned)
        self._hash: int | None = None
        guard = current_context().guard
        if guard is not None:
            guard.note_disjuncts(len(self._disjuncts))

    # -- constructors -----------------------------------------------------

    @classmethod
    def true(cls) -> "DisjunctiveConstraint":
        return cls((ConjunctiveConstraint.true(),))

    @classmethod
    def false(cls) -> "DisjunctiveConstraint":
        return cls(())

    @classmethod
    def of_conjunctive(cls, conj: ConjunctiveConstraint
                       ) -> "DisjunctiveConstraint":
        return cls((conj,))

    @classmethod
    def negation_of_conjunctive(cls, conj: ConjunctiveConstraint
                                ) -> "DisjunctiveConstraint":
        """``not conj`` as a disjunction of single-row conjunctions."""
        return cls(negated_branches(conj))

    # -- inspection ---------------------------------------------------------

    @property
    def disjuncts(self) -> tuple[ConjunctiveConstraint, ...]:
        return self._disjuncts

    @property
    def variables(self) -> frozenset[Variable]:
        result: set[Variable] = set()
        for d in self._disjuncts:
            result.update(d.variables)
        return frozenset(result)

    def is_syntactically_false(self) -> bool:
        return not self._disjuncts

    def is_true(self) -> bool:
        return any(d.is_true() for d in self._disjuncts)

    def __len__(self) -> int:
        return len(self._disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveConstraint]:
        return iter(self._disjuncts)

    # -- logical operations ----------------------------------------------------

    def disjoin(self, other: "DisjunctiveConstraint | ConjunctiveConstraint"
                ) -> "DisjunctiveConstraint":
        other = _as_disjunctive(other)
        return DisjunctiveConstraint(self._disjuncts + other._disjuncts)

    __or__ = disjoin

    def conjoin(self, other) -> "DisjunctiveConstraint":
        """Conjunction by distribution (cross product of disjuncts)."""
        if isinstance(other, LinearConstraint):
            other = ConjunctiveConstraint.of(other)
        if isinstance(other, ConjunctiveConstraint):
            return DisjunctiveConstraint(
                d.conjoin(other) for d in self._disjuncts)
        other = _as_disjunctive(other)
        return DisjunctiveConstraint(
            a.conjoin(b) for a in self._disjuncts for b in other._disjuncts)

    __and__ = conjoin

    def negate(self) -> "DisjunctiveConstraint":
        """Full negation: conjunction of the negations of the disjuncts."""
        result = DisjunctiveConstraint.true()
        for d in self._disjuncts:
            result = result.conjoin(
                DisjunctiveConstraint.negation_of_conjunctive(d))
        return result

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        return any(d.holds_at(point) for d in self._disjuncts)

    def rename(self, mapping: Mapping[Variable, Variable]
               ) -> "DisjunctiveConstraint":
        return DisjunctiveConstraint(
            d.rename(mapping) for d in self._disjuncts)

    # -- satisfiability / entailment ------------------------------------------

    def is_satisfiable(self) -> bool:
        return any(d.is_satisfiable() for d in self._disjuncts)

    def sample_point(self) -> Mapping[Variable, Fraction] | None:
        for d in self._disjuncts:
            point = d.sample_point()
            if point is not None:
                return point
        return None

    def entails(self, other: "DisjunctiveConstraint | ConjunctiveConstraint"
                ) -> bool:
        from repro.constraints import implication
        other = _as_disjunctive(other)
        return implication.disjunction_entails_disjunction(
            list(self._disjuncts), list(other._disjuncts))

    # -- projection -----------------------------------------------------------

    def restricted_project(self, free: Iterable[Variable]
                           ) -> "DisjunctiveConstraint":
        """The paper's restricted projection, applied disjunct-wise.

        The one-or-all-but-one condition is checked against the free
        variables of the *whole* disjunction.
        """
        free_set = frozenset(free)
        occurring = self.variables
        eliminated = occurring - free_set
        kept = occurring & free_set
        if len(eliminated) > 1 and len(kept) > 1:
            raise ConstraintFamilyError(
                f"restricted projection may eliminate one variable or "
                f"keep one; this application eliminates "
                f"{sorted(v.name for v in eliminated)} while keeping "
                f"{sorted(v.name for v in kept)}")
        return self.project(free_set)

    def project(self, free: Iterable[Variable]) -> "DisjunctiveConstraint":
        """Unrestricted disjunct-wise elimination (exact: projection
        distributes over union).  Disequalities mentioning an eliminated
        variable are split into strict branches first."""
        free_set = frozenset(free)
        out: list[ConjunctiveConstraint] = []
        for d in self._disjuncts:
            for piece in _split_disequalities_on(d, free_set):
                out.append(projection_mod.project_conjunctive(piece, free_set))
        return DisjunctiveConstraint(out)

    # -- identity ------------------------------------------------------------------

    def sorted_disjuncts(self) -> tuple[ConjunctiveConstraint, ...]:
        """The disjuncts ordered by their sorted rows' keys."""
        return tuple(sorted(self._disjuncts, key=lambda d: tuple(
            [row_key(d.columns, row) for row in d.sorted_rows()])))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DisjunctiveConstraint):
            return NotImplemented
        return self.sorted_disjuncts() == other.sorted_disjuncts()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                ("DisjunctiveConstraint", self.sorted_disjuncts()))
        return self._hash

    def __repr__(self) -> str:
        return f"DisjunctiveConstraint({self})"

    def __str__(self) -> str:
        if not self._disjuncts:
            return "FALSE"
        return " or ".join(f"({d})" for d in self.sorted_disjuncts())


def _as_disjunctive(value) -> DisjunctiveConstraint:
    if isinstance(value, DisjunctiveConstraint):
        return value
    if isinstance(value, ConjunctiveConstraint):
        return DisjunctiveConstraint.of_conjunctive(value)
    if isinstance(value, LinearConstraint):
        return DisjunctiveConstraint.of_conjunctive(
            ConjunctiveConstraint.of(value))
    raise TypeError(f"cannot treat {value!r} as a disjunctive constraint")


def _split_disequalities_on(conj: ConjunctiveConstraint,
                            free: frozenset[Variable]
                            ) -> list[ConjunctiveConstraint]:
    """Split every disequality that mentions a to-be-eliminated variable
    into its two strict branches, producing a small disjunction of
    conjunctions each safe for Fourier-Motzkin."""
    columns = conj.columns
    pending = [row for row in conj.rows if row[2] is Relop.NE
               and any(columns[j] not in free for j in row[0])]
    if not pending:
        return [conj]
    results = [[row for row in conj.rows if row not in pending]]
    for row in pending:
        results = [rows + [branch]
                   for rows in results for branch in split_row(row)]
    return [ConjunctiveConstraint.from_rows(columns, rows)
            for rows in results]
