"""Conjunctive constraints: conjunctions of linear arithmetic atoms.

A :class:`ConjunctiveConstraint` geometrically denotes a convex polyhedron
(possibly with faces removed by strict atoms and hyperplanes removed by
disequalities).  It is the base family of Section 3.1 of the paper; the
disjunctive and existential families are built on top of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.terms import RationalLike, Variable, to_fraction


class ConjunctiveConstraint:
    """An immutable conjunction of :class:`LinearConstraint` atoms.

    Trivially-true atoms are dropped at construction; a trivially-false
    atom collapses the whole conjunction to the canonical unsatisfiable
    conjunction ``FALSE``.  Syntactic duplicates are removed (one of the
    paper's two always-on simplifications).
    """

    __slots__ = ("_atoms", "_hash")

    def __init__(self, atoms: Iterable[LinearConstraint] = ()):
        cleaned: list[LinearConstraint] = []
        seen: set[LinearConstraint] = set()
        false = False
        for atom in atoms:
            if not isinstance(atom, LinearConstraint):
                raise TypeError(f"expected LinearConstraint, got {atom!r}")
            if atom.is_trivial:
                if not atom.trivial_truth():
                    false = True
                    break
                continue
            if atom not in seen:
                seen.add(atom)
                cleaned.append(atom)
        if false:
            cleaned = [_FALSE_ATOM]
        self._atoms = tuple(cleaned)
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def true(cls) -> "ConjunctiveConstraint":
        """The empty conjunction (all of space)."""
        return cls(())

    @classmethod
    def false(cls) -> "ConjunctiveConstraint":
        """The canonical unsatisfiable conjunction."""
        return cls((_FALSE_ATOM,))

    @classmethod
    def of(cls, *atoms: LinearConstraint) -> "ConjunctiveConstraint":
        return cls(atoms)

    # -- inspection -------------------------------------------------------

    @property
    def atoms(self) -> tuple[LinearConstraint, ...]:
        return self._atoms

    @property
    def variables(self) -> frozenset[Variable]:
        result: set[Variable] = set()
        for atom in self._atoms:
            result.update(atom.variables)
        return frozenset(result)

    def is_true(self) -> bool:
        """Syntactically the empty conjunction."""
        return not self._atoms

    def is_syntactically_false(self) -> bool:
        return self._atoms == (_FALSE_ATOM,)

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[LinearConstraint]:
        return iter(self._atoms)

    def equalities(self) -> tuple[LinearConstraint, ...]:
        return tuple(a for a in self._atoms if a.relop is Relop.EQ)

    def inequalities(self) -> tuple[LinearConstraint, ...]:
        return tuple(a for a in self._atoms
                     if a.relop in (Relop.LE, Relop.LT))

    def disequalities(self) -> tuple[LinearConstraint, ...]:
        return tuple(a for a in self._atoms if a.relop is Relop.NE)

    # -- logical operations --------------------------------------------------

    def conjoin(self, other: "ConjunctiveConstraint | LinearConstraint"
                ) -> "ConjunctiveConstraint":
        """Conjunction (geometric intersection)."""
        if isinstance(other, LinearConstraint):
            other_atoms: Sequence[LinearConstraint] = (other,)
        else:
            other_atoms = other._atoms
        return ConjunctiveConstraint(self._atoms + tuple(other_atoms))

    __and__ = conjoin

    def holds_at(self, point: Mapping[Variable, RationalLike]) -> bool:
        """Membership test of a concrete rational point."""
        frozen = {v: to_fraction(c) for v, c in point.items()}
        return all(atom.holds_at(frozen) for atom in self._atoms)

    def substitute(self, bindings) -> "ConjunctiveConstraint":
        return ConjunctiveConstraint(
            atom.substitute(bindings) for atom in self._atoms)

    def rename(self, mapping: Mapping[Variable, Variable]
               ) -> "ConjunctiveConstraint":
        """The conjunction over renamed variables.  A renaming that
        keeps the variables distinct maps distinct non-trivial atoms to
        distinct non-trivial atoms, so there is nothing to clean up
        again; one that merges variables can make atoms trivial or
        equal and goes through the constructor."""
        variables = self.variables
        atoms = tuple(atom.rename(mapping) for atom in self._atoms)
        if len({mapping.get(v, v) for v in variables}) != len(variables):
            return ConjunctiveConstraint(atoms)
        renamed = ConjunctiveConstraint.__new__(ConjunctiveConstraint)
        renamed._atoms = atoms
        renamed._hash = None
        return renamed

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

        Each equality atom is solved for one of its variables (preferring
        variables not in ``keep``) and substituted into the remaining
        atoms.  The result is equisatisfiable and, restricted to the
        surviving variables, equivalent; it is used to shrink systems
        before Fourier-Motzkin or simplex runs.  Equalities purely over
        ``keep`` variables are retained.
        """
        keep = keep or frozenset()
        atoms = list(self._atoms)
        changed = True
        while changed:
            changed = False
            for i, atom in enumerate(atoms):
                if atom.relop is not Relop.EQ:
                    continue
                candidates = [v for v in atom.variables if v not in keep]
                if not candidates:
                    continue
                var = min(candidates, key=lambda v: v.name)
                rest = atoms[:i] + atoms[i + 1:]
                atoms = [a.eliminate(var, atom) for a in rest]
                changed = True
                break
        return ConjunctiveConstraint(atoms)

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
        return tuple(sorted(self._atoms, key=LinearConstraint.sort_key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveConstraint):
            return NotImplemented
        return self.sorted_atoms() == other.sorted_atoms()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("ConjunctiveConstraint", self.sorted_atoms()))
        return self._hash

    def __repr__(self) -> str:
        return f"ConjunctiveConstraint({self})"

    def __str__(self) -> str:
        if not self._atoms:
            return "TRUE"
        if self.is_syntactically_false():
            return "FALSE"
        return " and ".join(str(a) for a in self.sorted_atoms())


#: The canonical false atom ``0 = 1`` — kept trivial-false on purpose so a
#: collapsed conjunction still carries one atom to print and hash.
_FALSE_ATOM = LinearConstraint.build(0, Relop.EQ, 1)
