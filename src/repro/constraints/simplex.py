"""Exact two-phase simplex over a fraction-free integer tableau.

This is the LP workhorse behind satisfiability checking, entailment, the
paper's ``MAX/MIN ... SUBJECT TO`` operators, and redundancy removal in
canonical forms.  Exactness matters: the logical identity of a CST object
is its canonical form, which must not depend on floating-point rounding.

The solver accepts the problem in the natural form used by the rest of
the engine::

    maximize  c . x
    subject   a_i . x <= b_i      (inequalities)
              e_j . x  = d_j      (equalities)
              x free (unrestricted in sign)

given as a conjunction's integer rows as stored (:func:`solve_rows`;
:func:`solve` indexes atoms first): the tableau's columns are the
columns' order (by name) and its rows the rows', and nothing else
steers Bland's rule.

Free variables are handled by the standard split ``x = x+ - x-``; a
Phase-I run with artificial variables establishes feasibility; Bland's
rule guarantees termination.  Results carry an optimal point so that
``MAX_POINT``/``MIN_POINT`` fall out directly.

Results are rational; the arithmetic is integer.  The tableau holds
``d * B^-1 A`` for the current basis ``B``, with ``d = |det B|``: that
is ``adj(B) A`` up to sign, a matrix of integers because ``A`` is one
(each row is coprime ``int``s; the right-hand side is scaled
by the lcm of the bounds' denominators and the objective by the lcm of
its coefficients' denominators).  A pivot replaces the Gauss-Jordan
update with Edmonds' fraction-free one, ``T'[i][j] = (T[p][q] T[i][j] -
T[i][q] T[p][j]) / d``, whose result is again ``d' B'^-1 A`` with ``d' =
T[p][q] = ±det B'`` -- an integer, so the division is exact.  ``Fraction``
appears only when :class:`LPResult` reports the optimum and its point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from repro.errors import ConstraintError
from repro.constraints.atoms import (
    ExactRow,
    LinearConstraint,
    Relop,
    column_union,
    index_atoms,
    move_columns,
)
from repro.constraints.terms import LinearExpression, Variable
from repro.runtime import context as context_mod
from repro.runtime.context import QueryContext
from repro.runtime.guard import ExecutionGuard


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """Outcome of a linear program.

    ``value`` and ``point`` are only meaningful when ``status`` is
    ``OPTIMAL``.  ``point`` binds every variable of the problem.
    """

    status: LPStatus
    value: Fraction | None = None
    point: Mapping[Variable, Fraction] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL

    @property
    def is_infeasible(self) -> bool:
        return self.status is LPStatus.INFEASIBLE

    @property
    def is_unbounded(self) -> bool:
        return self.status is LPStatus.UNBOUNDED


def solve(objective: LinearExpression,
          constraints: Sequence[LinearConstraint],
          maximize: bool = True,
          ctx: QueryContext | None = None) -> LPResult:
    """Solve ``max/min objective`` subject to non-strict ``constraints``.

    Only ``<=`` and ``=`` atoms are accepted (the normal form of the atom
    layer); strict and disequality atoms must be handled by the caller
    (see :mod:`repro.constraints.satisfiability`).  Budget governance
    comes from ``ctx``'s guard (ambient context when not given).
    """
    for atom in constraints:
        if atom.relop not in (Relop.LE, Relop.EQ):
            raise ConstraintError(
                f"simplex accepts only <= and = atoms, got {atom}")
    return solve_rows(*objective_columns(LinearExpression.coerce(objective),
                                         *index_atoms(constraints)),
                      maximize, ctx)


def feasible_point(constraints: Sequence[LinearConstraint],
                   ctx: QueryContext | None = None
                   ) -> Mapping[Variable, Fraction] | None:
    """A point satisfying the non-strict system, or None if infeasible."""
    result = solve(LinearExpression.constant(0), constraints, ctx=ctx)
    if result.is_optimal:
        return result.point
    return None


def objective_columns(objective: LinearExpression,
                      columns: tuple[Variable, ...],
                      rows: Sequence[ExactRow]) -> tuple:
    """:func:`solve_rows`' problem: the columns widened by the
    objective's variables (the rows moved onto them), the objective's
    coefficient per column and its constant."""
    coefficients = objective.coefficients
    missing = [var for var in coefficients if var not in columns]
    if missing:
        columns, (target, _) = column_union(columns, missing)
        rows = move_columns(rows, target)
    return columns, rows, {columns.index(var): coeff
                           for var, coeff in coefficients.items()}, \
        objective.constant_term


def solve_rows(columns: Sequence[Variable | None], rows: Sequence[ExactRow],
               cost: Mapping[int, Fraction], constant: Fraction = Fraction(0),
               maximize: bool = True, ctx: QueryContext | None = None
               ) -> LPResult:
    """Solve ``max/min cost . x + constant`` subject to ``rows`` (``<=``
    and ``=`` only) over ``columns``; ``cost`` maps a column to its
    coefficient.  A ``None`` column is unnamed: the point leaves it
    out.  Budget governance comes from ``ctx``'s guard."""
    resolved = context_mod.resolve(ctx)
    resolved.stats.simplex_solves += 1
    guard = resolved.guard
    if guard is not None:
        guard.enter_simplex()
    return _StandardForm(columns, rows, cost, constant, maximize,
                         guard).solve()


class _StandardForm:
    """Dense two-phase simplex in standard form on an integer tableau.

    Free variables are split; rows are ``A x (+ slack) = b`` with
    ``b >= 0`` after sign fixing; Bland's anti-cycling rule is used for
    both entering and leaving choices.

    Each row is a list of ``int``s whose last entry is the right-hand
    side; the objective row's last entry is the objective value.  All
    of them are scaled by the common denominator ``self._d`` (see the
    module docstring), which starts at 1 on the artificial basis.  The
    right-hand side is further scaled by ``rhs_scale`` and the objective
    row by ``cost_scale``; both are positive constants, so no sign, and
    so no entering or leaving choice, differs from the rational
    tableau's.
    """

    def __init__(self, columns: Sequence[Variable | None],
                 rows: Sequence[ExactRow], cost: Mapping[int, Fraction],
                 constant: Fraction, maximize: bool,
                 guard: ExecutionGuard | None = None):
        self.maximize = maximize
        self._guard = guard
        self.columns = columns
        self.rows = rows
        self.cost = cost if maximize \
            else {j: -coeff for j, coeff in cost.items()}
        self.constant = constant
        self._d = 1

    # Column layout: for each original variable v_i two columns (plus,
    # minus); then one slack column per inequality row; artificials are
    # appended by Phase I only; the right-hand side comes last.

    def solve(self) -> LPResult:
        n_vars = len(self.columns)
        n_ineq = sum(1 for row in self.rows if row[2] is Relop.LE)
        n_cols = 2 * n_vars + n_ineq

        rhs_scale = lcm(*(row[3].denominator for row in self.rows))
        rows: list[list[int]] = []
        slack_seen = 0
        for cols, coeffs, relop, b in self.rows:
            row = [0] * (n_cols + 1)
            for j, coeff in zip(cols, coeffs):
                row[2 * j] = coeff
                row[2 * j + 1] = -coeff
            row[n_cols] = b.numerator * (rhs_scale // b.denominator)
            if relop is Relop.LE:
                row[2 * n_vars + slack_seen] = 1
                slack_seen += 1
            if b < 0:
                row = [-c for c in row]
            rows.append(row)

        # Objective over split variables (Phase II costs).
        cost_scale = lcm(*(c.denominator for c in self.cost.values()))
        cost = [0] * n_cols
        for j, coeff in self.cost.items():
            cost[2 * j] = coeff.numerator * (cost_scale // coeff.denominator)
            cost[2 * j + 1] = -cost[2 * j]

        basis = self._phase_one(rows, n_cols)
        if basis is None:
            return LPResult(LPStatus.INFEASIBLE)

        optimum = self._phase_two(rows, basis, cost, n_cols)
        if optimum is None:
            return LPResult(LPStatus.UNBOUNDED)
        value, solution = optimum

        denominator = self._d * rhs_scale
        point = {var: Fraction(solution[2 * j] - solution[2 * j + 1],
                               denominator)
                 for j, var in enumerate(self.columns) if var is not None}
        objective_value = Fraction(value, denominator * cost_scale)
        if not self.maximize:
            objective_value = -objective_value
        return LPResult(LPStatus.OPTIMAL, objective_value + self.constant,
                        point)

    # -- phase I -----------------------------------------------------------

    def _phase_one(self, rows, n_cols):
        """Drive artificial variables out; returns the basis, or None when
        infeasible.  Leaves ``rows`` truncated to ``n_cols`` columns plus
        the right-hand side."""
        n_rows = len(rows)
        for i, row in enumerate(rows):
            b = row.pop()
            row.extend(1 if k == i else 0 for k in range(n_rows))
            row.append(b)
        basis = [n_cols + i for i in range(n_rows)]

        # Phase-I objective: minimize sum of artificials, run as
        # "maximize -sum".  With the artificial basis (cost -1 each),
        # the reduced cost of column j is z_j - c_j where
        # z_j = -sum_i rows[i][j] and c_j is -1 for artificial columns,
        # 0 otherwise: so 0 on every artificial column.  The starting
        # objective value is -sum(rhs).
        objective = [-sum(column) for column in zip(*rows)] if rows \
            else [0] * (n_cols + 1)
        objective[n_cols:n_cols + n_rows] = [0] * n_rows

        self._iterate(rows, basis, objective, n_cols + n_rows)
        if objective[-1] != 0:
            return None

        # Pivot remaining artificial basics out where possible.
        for i in range(n_rows):
            if basis[i] >= n_cols:
                pivot_col = next(
                    (j for j in range(n_cols) if rows[i][j] != 0), None)
                if pivot_col is not None:
                    self._pivot(rows, None, i, pivot_col)
                    basis[i] = pivot_col
        # Degenerate all-zero artificial rows are redundant; they stay with
        # an artificial basic at value 0 and are harmless, but we drop the
        # artificial columns from consideration by truncating each row.
        for row in rows:
            del row[n_cols:-1]
        return basis

    # -- phase II ------------------------------------------------------------

    def _phase_two(self, rows, basis, cost, n_cols):
        """Optimize ``cost`` from the Phase-I basis; returns ``(value,
        solution)`` scaled like the tableau, or None when unbounded."""
        # Remove rows whose basic variable is still artificial (index out of
        # range after truncation): they are all-zero redundant rows.  The
        # kept rows never read them, so every later division stays exact.
        keep = [i for i in range(len(rows)) if basis[i] < n_cols]
        rows = [rows[i] for i in keep]
        basis = [basis[i] for i in keep]

        # Reduced costs: c_B B^-1 A - c  (tableau already in d B^-1 A
        # form), with the objective value in the last entry.
        objective = [-self._d * c for c in cost] + [0]
        for b, row in zip(basis, rows):
            cb = cost[b]
            if cb != 0:
                objective = [o + cb * a for o, a in zip(objective, row)]

        if not self._iterate(rows, basis, objective, n_cols,
                             detect_unbounded=True):
            return None

        solution = [0] * n_cols
        for i, b in enumerate(basis):
            solution[b] = rows[i][-1]
        return objective[-1], solution

    # -- core pivoting ----------------------------------------------------------

    def _iterate(self, rows, basis, objective, n_cols,
                 detect_unbounded: bool = False) -> bool:
        """Run simplex iterations (maximization).

        ``objective[j]`` holds ``z_j - c_j``; a column with a negative
        entry improves the objective.  Bland's rule: smallest improving
        column, smallest-index tie-break on the ratio test, which
        compares ``rhs_i / coeff_i`` by cross-multiplying integers.
        Returns True at an optimum and False when unbounded (only if
        ``detect_unbounded``, Phase I cannot be unbounded).
        """
        guard = self._guard
        while True:
            entering = next(
                (j for j in range(n_cols) if objective[j] < 0), None)
            if entering is None:
                return True
            # Ratio test.
            leaving = None
            best_rhs = best_coeff = 0
            for i, row in enumerate(rows):
                coeff = row[entering]
                if coeff > 0:
                    if leaving is None:
                        best_rhs, best_coeff, leaving = row[-1], coeff, i
                        continue
                    lhs = row[-1] * best_coeff
                    rhs = best_rhs * coeff
                    if lhs < rhs or (lhs == rhs
                                     and basis[i] < basis[leaving]):
                        best_rhs, best_coeff, leaving = row[-1], coeff, i
            if leaving is None:
                if detect_unbounded:
                    return False
                raise ConstraintError("phase-I simplex reported unbounded")
            if guard is not None:
                guard.tick_pivots()
            self._pivot(rows, objective, leaving, entering)
            basis[leaving] = entering

    def _pivot(self, rows, objective, pivot_row: int, pivot_col: int) -> None:
        """Fraction-free pivot on (pivot_row, pivot_col).

        Row ``pivot_row`` stays as it is; every other row (and the
        objective row, when given) becomes ``(pivot * row - row[pivot_col]
        * pivot_row) // d``, exact by the module docstring's argument.
        The pivot becomes the new denominator; a negative one (only the
        Phase-I clean-up chooses one) is made positive by negating every
        row.
        """
        d = self._d
        prow = rows[pivot_row]
        pivot = prow[pivot_col]
        others = rows if objective is None else rows + [objective]
        for i, row in enumerate(others):
            if i == pivot_row:
                continue
            factor = row[pivot_col]
            if factor:
                row[:] = [(pivot * a - factor * b) // d
                          for a, b in zip(row, prow)]
            elif pivot != d:
                row[:] = [pivot * a // d for a in row]
        if pivot < 0:
            for row in others:
                row[:] = [-a for a in row]
            pivot = -pivot
        self._d = pivot
