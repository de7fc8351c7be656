"""Exact two-phase simplex over rational numbers.

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

Free variables are handled by the standard split ``x = x+ - x-``; a
Phase-I run with artificial variables establishes feasibility; Bland's
rule guarantees termination.  Results carry an optimal point so that
``MAX_POINT``/``MIN_POINT`` fall out directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.errors import ConstraintError
from repro.constraints.atoms import LinearConstraint, Relop
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
    resolved = context_mod.resolve(ctx)
    resolved.stats.simplex_solves += 1
    guard = resolved.guard
    if guard is not None:
        guard.enter_simplex()
    objective = LinearExpression.coerce(objective)
    problem = _StandardForm(objective, constraints, maximize, guard)
    return problem.solve()


def feasible_point(constraints: Sequence[LinearConstraint],
                   ctx: QueryContext | None = None
                   ) -> Mapping[Variable, Fraction] | None:
    """A point satisfying the non-strict system, or None if infeasible."""
    result = solve(LinearExpression.constant(0), constraints, ctx=ctx)
    if result.is_optimal:
        return result.point
    return None


class _StandardForm:
    """Dense-tableau two-phase simplex in standard form.

    Free variables are split; rows are ``A x (+ slack) = b`` with
    ``b >= 0`` after sign fixing; Bland's anti-cycling rule is used for
    both entering and leaving choices.
    """

    def __init__(self, objective: LinearExpression,
                 constraints: Sequence[LinearConstraint],
                 maximize: bool,
                 guard: ExecutionGuard | None = None):
        self.maximize = maximize
        self._guard = guard
        self.objective = objective if maximize else -objective
        var_set: set[Variable] = set(objective.variables)
        for atom in constraints:
            var_set.update(atom.variables)
        self.variables: list[Variable] = sorted(var_set, key=lambda v: v.name)
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self.constraints = list(constraints)

    # Column layout: for each original variable v_i two columns (plus,
    # minus); then one slack column per inequality row; artificials are
    # appended by Phase I only.

    def solve(self) -> LPResult:
        n_vars = len(self.variables)
        n_rows = len(self.constraints)
        n_ineq = sum(1 for a in self.constraints if a.relop is Relop.LE)
        n_cols = 2 * n_vars + n_ineq

        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        slack_seen = 0
        zero = Fraction(0)
        for atom in self.constraints:
            row = [zero] * n_cols
            for var, coeff in atom.terms:
                # Every tableau entry a Fraction, never an int that a
                # later ``/`` could turn into a float.
                j = self.var_index[var]
                row[2 * j] = Fraction(coeff)
                row[2 * j + 1] = Fraction(-coeff)
            b = atom.bound
            if atom.relop is Relop.LE:
                row[2 * n_vars + slack_seen] = Fraction(1)
                slack_seen += 1
            if b < 0:
                row = [-c for c in row]
                b = -b
            rows.append(row)
            rhs.append(b)

        # Objective over split variables (Phase II costs).
        cost = [zero] * n_cols
        for var, coeff in self.objective.coefficients.items():
            j = self.var_index[var]
            cost[2 * j] = coeff
            cost[2 * j + 1] = -coeff

        basis, rows, rhs, n_cols = self._phase_one(rows, rhs, n_cols, n_rows)
        if basis is None:
            return LPResult(LPStatus.INFEASIBLE)

        status, value, solution = self._phase_two(
            rows, rhs, basis, cost, n_cols)
        if status is LPStatus.UNBOUNDED:
            return LPResult(LPStatus.UNBOUNDED)

        point: dict[Variable, Fraction] = {}
        for var, j in self.var_index.items():
            point[var] = solution[2 * j] - solution[2 * j + 1]
        objective_value = value + self.objective.constant_term
        if not self.maximize:
            objective_value = -objective_value
        return LPResult(LPStatus.OPTIMAL, objective_value, point)

    # -- phase I -----------------------------------------------------------

    def _phase_one(self, rows, rhs, n_cols, n_rows):
        """Drive artificial variables out; returns (basis, rows, rhs, n_cols)
        or (None, ...) when infeasible."""
        zero = Fraction(0)
        one = Fraction(1)
        total_cols = n_cols + n_rows
        for i, row in enumerate(rows):
            row.extend(one if k == i else zero for k in range(n_rows))
        basis = [n_cols + i for i in range(n_rows)]

        # Phase-I objective: minimize sum of artificials, run as
        # "maximize -sum".  With the artificial basis (cost -1 each),
        # the reduced cost of column j is z_j - c_j where
        # z_j = -sum_i rows[i][j] and c_j is -1 for artificial columns,
        # 0 otherwise.  The starting objective value is -sum(rhs).
        col_sums = [zero] * total_cols
        obj_val = zero
        for i in range(n_rows):
            row_i = rows[i]
            for j in range(total_cols):
                if row_i[j] != 0:
                    col_sums[j] += row_i[j]
            obj_val += rhs[i]
        reduced = [-col_sums[j] for j in range(total_cols)]
        for j in range(n_cols, total_cols):
            reduced[j] += 1

        basis, value = self._iterate(rows, rhs, basis, reduced, -obj_val,
                                     total_cols)
        if value != 0:
            return None, rows, rhs, n_cols

        # Pivot remaining artificial basics out where possible.
        for i in range(n_rows):
            if basis[i] >= n_cols:
                pivot_col = next(
                    (j for j in range(n_cols) if rows[i][j] != 0), None)
                if pivot_col is not None:
                    self._pivot(rows, rhs, None, i, pivot_col)
                    basis[i] = pivot_col
        # Degenerate all-zero artificial rows are redundant; they stay with
        # an artificial basic at value 0 and are harmless, but we drop the
        # artificial columns from consideration by truncating each row.
        for row in rows:
            del row[n_cols:]
        return basis, rows, rhs, n_cols

    # -- phase II ------------------------------------------------------------

    def _phase_two(self, rows, rhs, basis, cost, n_cols):
        zero = Fraction(0)
        n_rows = len(rows)
        # Remove rows whose basic variable is still artificial (index out of
        # range after truncation): they are all-zero redundant rows.
        keep = [i for i in range(n_rows) if basis[i] < n_cols]
        rows = [rows[i] for i in keep]
        rhs = [rhs[i] for i in keep]
        basis = [basis[i] for i in keep]
        n_rows = len(rows)

        # Reduced costs: c_B B^-1 A - c  (tableau already in B^-1 A form).
        reduced = [-cost[j] for j in range(n_cols)]
        value = zero
        for i in range(n_rows):
            cb = cost[basis[i]]
            if cb != 0:
                for j in range(n_cols):
                    if rows[i][j] != 0:
                        reduced[j] += cb * rows[i][j]
                value += cb * rhs[i]

        result = self._iterate(rows, rhs, basis, reduced, value, n_cols,
                               detect_unbounded=True)
        if result is None:
            return LPStatus.UNBOUNDED, None, None
        basis, value = result

        solution = [zero] * n_cols
        for i, b in enumerate(basis):
            solution[b] = rhs[i]
        return LPStatus.OPTIMAL, value, solution

    # -- core pivoting ----------------------------------------------------------

    def _iterate(self, rows, rhs, basis, reduced, value, n_cols,
                 detect_unbounded: bool = False):
        """Run simplex iterations (maximization).

        ``reduced[j]`` holds ``z_j - c_j``; a column with ``reduced < 0``
        improves the objective.  Bland's rule: smallest improving column,
        smallest-index tie-break on the ratio test.
        Returns (basis, value); or None when unbounded (only if
        ``detect_unbounded``, Phase I cannot be unbounded).
        """
        n_rows = len(rows)
        guard = self._guard
        while True:
            entering = next(
                (j for j in range(n_cols) if reduced[j] < 0), None)
            if entering is None:
                return basis, value
            # Ratio test.
            leaving = None
            best_ratio: Fraction | None = None
            for i in range(n_rows):
                coeff = rows[i][entering]
                if coeff > 0:
                    ratio = rhs[i] / coeff
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio
                                and basis[i] < basis[leaving])):
                        best_ratio = ratio
                        leaving = i
            if leaving is None:
                if detect_unbounded:
                    return None
                raise ConstraintError("phase-I simplex reported unbounded")
            if guard is not None:
                guard.tick_pivots()
            value += (-reduced[entering]) * best_ratio
            self._pivot(rows, rhs, reduced, leaving, entering)
            basis[leaving] = entering

    @staticmethod
    def _pivot(rows, rhs, reduced, pivot_row: int, pivot_col: int) -> None:
        """Gauss-Jordan pivot on (pivot_row, pivot_col)."""
        n_cols = len(rows[pivot_row])
        pivot = rows[pivot_row][pivot_col]
        inv = Fraction(1) / pivot
        row = rows[pivot_row]
        for j in range(n_cols):
            if row[j] != 0:
                row[j] *= inv
        rhs[pivot_row] *= inv
        for i, other in enumerate(rows):
            if i == pivot_row:
                continue
            factor = other[pivot_col]
            if factor != 0:
                for j in range(n_cols):
                    if row[j] != 0:
                        other[j] -= factor * row[j]
                rhs[i] -= factor * rhs[pivot_row]
        if reduced is not None:
            factor = reduced[pivot_col]
            if factor != 0:
                for j in range(n_cols):
                    if row[j] != 0:
                        reduced[j] -= factor * row[j]
