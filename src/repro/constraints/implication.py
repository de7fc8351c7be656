"""Entailment between constraint formulas — the paper's ``|=`` predicate.

Section 4.2 defines ``((x..)|phi) |= ((y..)|psi)`` to hold iff for every
real instantiation of all variables, truth of the left side implies truth
of the right side.  We decide it completely:

* ``conjunctive |= conjunctive``: for each row ``a`` of the right side,
  check ``phi and not(a)`` unsatisfiable.  Negation of ``=`` splits into
  two strict branches (:func:`~repro.constraints.atoms.negated_rows`).
* ``disjunctive |= disjunctive``: every disjunct of the left side must
  entail the right-side disjunction; ``D |= (C1 or ... or Ck)`` holds iff
  ``D and not(C1) and ... and not(Ck)`` is unsatisfiable, where each
  ``not(Cj)`` is a disjunction of negated atoms — expanded to DNF with
  early unsatisfiability pruning.  The expansion is exponential only in
  the size of the *query* constraint, matching the paper's data-complexity
  analysis (Section 5).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.constraints.atoms import (
    LinearConstraint,
    index_atoms,
    negated_rows,
    row_atoms,
)
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.satisfiability import is_satisfiable
from repro.runtime import context as context_mod
from repro.runtime.context import QueryContext


def negated_atom_branches(atom: LinearConstraint
                          ) -> tuple[LinearConstraint, ...]:
    """The complement of an atom as a disjunction of =,<=,< atoms."""
    columns, (row,) = index_atoms((atom,))
    return row_atoms(columns, negated_rows(row))


def negated_branches(conj: ConjunctiveConstraint
                     ) -> Iterator[ConjunctiveConstraint]:
    """``not conj`` as one-row conjunctions, a disjunction: the
    :func:`~repro.constraints.atoms.negated_rows` of each row."""
    for row in conj.rows:
        for branch in negated_rows(row):
            yield ConjunctiveConstraint.from_rows(conj.columns, (branch,))


def conjunctive_entails_conjunctive(lhs: ConjunctiveConstraint,
                                    rhs: ConjunctiveConstraint,
                                    ctx: QueryContext | None = None
                                    ) -> bool:
    """``lhs |= rhs`` for two conjunctions."""
    ctx = context_mod.resolve(ctx)
    if not is_satisfiable(lhs, ctx):
        return True
    return not any(is_satisfiable(lhs.conjoin(branch), ctx)
                   for branch in negated_branches(rhs))


def conjunctive_entails_disjunction(lhs: ConjunctiveConstraint,
                                    disjuncts: Sequence[ConjunctiveConstraint],
                                    ctx: QueryContext | None = None
                                    ) -> bool:
    """``lhs |= (d1 or ... or dk)``.

    Implemented as unsatisfiability of ``lhs and not(d1) and ... and
    not(dk)``; the conjunction of negated disjuncts is explored as a DNF
    product with depth-first early pruning, so the common case (few
    disjuncts, early contradictions) stays fast.
    """
    ctx = context_mod.resolve(ctx)
    if not is_satisfiable(lhs, ctx):
        return True
    if not disjuncts:
        return False

    # Fast path: some single disjunct already subsumes lhs.
    for d in disjuncts:
        if conjunctive_entails_conjunctive(lhs, d, ctx):
            return True

    negations: list[list[ConjunctiveConstraint]] = []
    for d in disjuncts:
        branches = list(negated_branches(d))
        if not branches:
            # Negating TRUE gives FALSE: the disjunct covers everything.
            return True
        negations.append(branches)

    # Order by fewest branches first to maximize pruning.
    negations.sort(key=len)

    def explore(base: ConjunctiveConstraint, level: int) -> bool:
        """True iff some branch assignment from ``level`` on is
        satisfiable together with ``base`` (i.e. entailment FAILS)."""
        if not is_satisfiable(base, ctx):
            return False
        if level == len(negations):
            return True
        for branch in negations[level]:
            if explore(base.conjoin(branch), level + 1):
                return True
        return False

    return not explore(lhs, 0)


def disjunction_entails_disjunction(
        lhs: Sequence[ConjunctiveConstraint],
        rhs: Sequence[ConjunctiveConstraint],
        ctx: QueryContext | None = None) -> bool:
    """``(l1 or ... or lm) |= (r1 or ... or rk)``."""
    ctx = context_mod.resolve(ctx)
    return all(conjunctive_entails_disjunction(l, rhs, ctx) for l in lhs)


def equivalent(lhs: ConjunctiveConstraint,
               rhs: ConjunctiveConstraint,
               ctx: QueryContext | None = None) -> bool:
    """Mutual entailment of two conjunctions."""
    ctx = context_mod.resolve(ctx)
    return (conjunctive_entails_conjunctive(lhs, rhs, ctx)
            and conjunctive_entails_conjunctive(rhs, lhs, ctx))


def atom_redundant_in(atom: LinearConstraint | ConjunctiveConstraint,
                      context: ConjunctiveConstraint,
                      ctx: QueryContext | None = None) -> bool:
    """Is ``atom`` — or a conjunction of one row — implied by
    ``context`` (used by canonical forms)?

    Memoized on ``(atom, context)`` — canonicalization asks this
    question once per row per call, and the same pairs recur across
    structurally equal constraints.  The per-branch satisfiability
    checks additionally flow through the interval prefilter via
    :func:`is_satisfiable`.
    """
    if isinstance(atom, LinearConstraint):
        atom = ConjunctiveConstraint.of(atom)
    resolved = context_mod.resolve(ctx)
    return resolved.memoized(
        ("redundant", atom, context),
        lambda: not any(is_satisfiable(context.conjoin(branch), resolved)
                        for branch in negated_branches(atom)))
