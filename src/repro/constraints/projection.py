"""Projection (existential quantification) by Fourier-Motzkin elimination.

Section 3.1 of the paper defines projection ``((x1..xn) | phi)`` — a
variant of the existential quantifier that lists the *free* variables —
and restricts it on the conjunctive and disjunctive families to
eliminating **one**, or **all but one**, of the free variables of ``phi``
per application ("restricted quantifier elimination"), so each step is
polynomial.  Unrestricted elimination exists for existential-conjunctive
formulas, where quantifiers may instead be kept symbolic.

This module implements:

* :func:`eliminate_variable` — one Fourier-Motzkin step on a conjunction,
* :func:`project_conjunctive` — eliminate an arbitrary set of variables
  eagerly (used for unrestricted/symbolic-free evaluation),
* :func:`restricted_project` — the paper's checked operator, raising
  :class:`ConstraintFamilyError` when more than one and fewer than
  all-but-one variables would be eliminated.

Equalities are substituted out first (Gaussian elimination), which both
shortens FM runs and keeps intermediate growth down; redundant derived
atoms are pruned with cheap syntactic checks plus an optional LP-based
pass used by the canonical former.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConstraintFamilyError
from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.terms import Variable


def eliminate_variable(conj: ConjunctiveConstraint, var: Variable
                       ) -> ConjunctiveConstraint:
    """One Fourier-Motzkin step: ``exists var . conj``.

    Requires that ``var`` does not occur in any disequality atom — over
    the reals ``exists x (phi and e(x) != b)`` is not in general a
    conjunction; route such formulas through the disjunctive family
    (split the disequality first).
    """
    for atom in conj.disequalities():
        if var in atom.variables:
            raise ConstraintFamilyError(
                f"cannot eliminate {var} from disequality {atom}; split "
                "the disequality into a disjunction first")

    # Substitute the variable away through an equality when one exists —
    # exact and produces no quadratic atom growth.
    for pivot in conj.equalities():
        if var in pivot.variables:
            return ConjunctiveConstraint(
                atom.eliminate(var, pivot)
                for atom in conj.atoms if atom is not pivot)

    # atom: c*var + r relop b.  A lower bound (c < 0) and an upper bound
    # (c > 0) combine with positive factors that cancel var.
    lower: list[tuple[LinearConstraint, int]] = []
    upper: list[tuple[LinearConstraint, int]] = []
    rest: list[LinearConstraint] = []
    for atom in conj.atoms:
        coeff = atom.coefficient(var)
        if coeff > 0:
            upper.append((atom, coeff))
        elif coeff < 0:
            lower.append((atom, -coeff))
        else:
            rest.append(atom)

    derived: list[LinearConstraint] = []
    for lo_atom, lo_coeff in lower:
        for hi_atom, hi_coeff in upper:
            strict = (lo_atom.relop is Relop.LT
                      or hi_atom.relop is Relop.LT)
            relop = Relop.LT if strict else Relop.LE
            derived.append(lo_atom.combine(hi_coeff, hi_atom, lo_coeff,
                                           relop))
    return ConjunctiveConstraint(rest + derived)


def project_conjunctive(conj: ConjunctiveConstraint,
                        free: Iterable[Variable]) -> ConjunctiveConstraint:
    """``((free) | conj)`` with eager elimination of every bound variable.

    This is *unrestricted* quantifier elimination: worst-case exponential
    in the number of eliminated variables (the blow-up benchmarked by
    experiment E9).  The paper's checked operator is
    :func:`restricted_project`.
    """
    free_set = frozenset(free)
    work = conj.eliminate_equalities(keep=free_set)
    to_eliminate = sorted(work.variables - free_set, key=lambda v: v.name)
    for var in _elimination_order(work, to_eliminate):
        work = eliminate_variable(work, var)
        work = prune_syntactic(work)
    return work


def restricted_project(conj: ConjunctiveConstraint,
                       free: Iterable[Variable]) -> ConjunctiveConstraint:
    """The paper's restricted projection on a conjunction.

    Either (1) at most one, or (2) all but one, of the free variables of
    ``conj`` may be *missing* from ``free`` — i.e. one application
    eliminates one variable, or keeps only one.  Anything else raises
    :class:`ConstraintFamilyError`.  (Free variables in ``free`` that do
    not occur in ``conj`` are permitted: projection "can add new free
    variables".)
    """
    free_set = frozenset(free)
    occurring = conj.variables
    eliminated = occurring - free_set
    kept = occurring & free_set
    if len(eliminated) > 1 and len(kept) > 1:
        raise ConstraintFamilyError(
            f"restricted projection may eliminate one variable or keep "
            f"one variable; this application eliminates "
            f"{sorted(v.name for v in eliminated)} while keeping "
            f"{sorted(v.name for v in kept)}")
    return project_conjunctive(conj, free_set)


def fm_growth(conj: ConjunctiveConstraint, var: Variable) -> int:
    """How many atoms one Fourier-Motzkin step on ``var`` adds to
    ``conj``: its ``lows * highs`` derived atoms less the ``lows +
    highs`` bounds on ``var`` they replace."""
    lows = highs = 0
    for atom in conj.atoms:
        coeff = atom.coefficient(var)
        if coeff > 0:
            highs += 1
        elif coeff < 0:
            lows += 1
    return lows * highs - lows - highs


def _elimination_order(conj: ConjunctiveConstraint,
                       candidates: Sequence[Variable]) -> list[Variable]:
    """Min-fill ordering: the candidates sorted once by the growth of
    their FM step on ``conj``, ties by name (classic FM heuristic).

    The growth is estimated on the original conjunction; re-estimating
    after each elimination would be more accurate, but the static
    estimate is a good and much cheaper proxy."""
    return sorted(candidates, key=lambda v: (fm_growth(conj, v), v.name))


def prune_syntactic(conj: ConjunctiveConstraint) -> ConjunctiveConstraint:
    """Cheap redundancy pruning between atoms sharing a coefficient vector.

    Among atoms with the same normalized expression, keep only the
    tightest upper bound (and the strictest at equal bounds); equalities
    and disequalities are left untouched.  This is purely syntactic and
    therefore safe to run inside elimination loops.
    """
    best: dict = {}
    others: list[LinearConstraint] = []
    for atom in conj.atoms:
        if atom.relop not in (Relop.LE, Relop.LT):
            others.append(atom)
            continue
        key = atom.terms
        current = best.get(key)
        if current is None:
            best[key] = atom
            continue
        if (atom.bound < current.bound
                or (atom.bound == current.bound
                    and atom.relop is Relop.LT)):
            best[key] = atom
    return ConjunctiveConstraint(others + list(best.values()))
