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
rows are pruned syntactically.  Every step is a row operation on the
conjunction's rows, by column.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConstraintFamilyError
from repro.constraints.atoms import (
    Relop,
    combine_rows,
    eliminate_row,
    row_atoms,
    row_coefficient,
)
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
    if var not in conj.columns:
        return conj
    col, rows = conj.columns.index(var), conj.rows
    for row in rows:
        if row[2] is Relop.NE and col in row[0]:
            raise ConstraintFamilyError(
                f"cannot eliminate {var} from disequality "
                f"{row_atoms(conj.columns, (row,))[0]}; split "
                "the disequality into a disjunction first")

    # Substitute the variable away through an equality when one exists —
    # exact and produces no quadratic row growth.
    for i, pivot in enumerate(rows):
        if pivot[2] is Relop.EQ and col in pivot[0]:
            return ConjunctiveConstraint.from_rows(
                conj.columns,
                [eliminate_row(row, col, pivot)
                 for row in rows[:i] + rows[i + 1:]])

    # A lower bound (coefficient c < 0 on var) and an upper bound (c > 0)
    # combine with positive factors that cancel var, after the rows
    # without it.
    lower, upper, rest = _bounds_on(rows, col)
    for lo_row, lo_coeff in lower:
        for hi_row, hi_coeff in upper:
            strict = lo_row[2] is Relop.LT or hi_row[2] is Relop.LT
            rest.append(combine_rows(hi_coeff, lo_row, lo_coeff, hi_row,
                                     Relop.LT if strict else Relop.LE))
    return ConjunctiveConstraint.from_rows(conj.columns, rest)


def _bounds_on(rows, col: int) -> tuple[list, list, list]:
    """The rows bounding column ``col`` from below and from above, each
    with the magnitude of its coefficient, and the rows without it."""
    lower, upper, rest = [], [], []
    for row in rows:
        coeff = row_coefficient(row, col)
        if coeff > 0:
            upper.append((row, coeff))
        elif coeff < 0:
            lower.append((row, -coeff))
        else:
            rest.append(row)
    return lower, upper, rest


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
    # Min-fill order, fixed once: by the growth of each FM step on the
    # system as it is now, ties by name (the static estimate is a good
    # and much cheaper proxy for re-estimating after each step).
    order = sorted((var for var in work.columns if var not in free_set),
                   key=lambda v: (fm_growth(work, v), v.name))
    for var in order:
        work = prune_syntactic(eliminate_variable(work, var))
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
    """How many rows one Fourier-Motzkin step on ``var`` adds to
    ``conj``: its ``lows * highs`` derived rows less the ``lows +
    highs`` bounds on ``var`` they replace."""
    if var not in conj.columns:
        return 0
    lower, upper, _ = _bounds_on(conj.rows, conj.columns.index(var))
    return len(lower) * len(upper) - len(lower) - len(upper)


def prune_syntactic(conj: ConjunctiveConstraint) -> ConjunctiveConstraint:
    """Cheap redundancy pruning between rows sharing a coefficient vector.

    Among rows with the same columns and coefficients, keep only the
    tightest upper bound (and the strictest at equal bounds), in the
    slot of the first of them, after every other row; equalities and
    disequalities are left untouched.  This is purely syntactic and
    therefore safe to run inside elimination loops.
    """
    best: dict = {}
    others: list = []
    for row in conj.rows:
        relop = row[2]
        if relop is not Relop.LE and relop is not Relop.LT:
            others.append(row)
            continue
        key = (row[0], row[1])
        current = best.get(key)
        if current is None or row[3] < current[3] or (
                row[3] == current[3] and relop is Relop.LT):
            best[key] = row
    return ConjunctiveConstraint.from_rows(conj.columns,
                                          others + list(best.values()))
