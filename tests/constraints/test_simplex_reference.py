"""Differential test: the integer simplex against the rational one.

:class:`RationalTableau` is the dense ``Fraction`` Gauss-Jordan tableau
that :mod:`repro.constraints.simplex` used before it pivoted integer
rows fraction-free.  It lives here only, as an oracle: the integer
solver must make the same pivots (same Bland's-rule choices, so the
same witness points and pivot counts) and report the same status,
value and point on every problem Hypothesis draws -- rational bounds
and objectives, redundant equalities that leave an artificial basic,
degenerate and cycling-prone vertices, infeasible and unbounded systems,
and problems with no rows or no variables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import simplex
from repro.constraints.atoms import (
    Eq,
    Le,
    LinearConstraint,
    Relop,
    index_atoms,
)
from repro.constraints.simplex import LPResult, LPStatus
from repro.constraints.terms import LinearExpression, Variable
from repro.errors import ConstraintError, PivotBudgetExceeded
from repro.runtime.guard import ExecutionGuard


class RationalTableau:
    """Reference oracle: the Gauss-Jordan ``Fraction`` tableau the
    integer solver replaced, kept verbatim but for its name and this
    docstring.

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


# ---------------------------------------------------------------------------
# Running both solvers
# ---------------------------------------------------------------------------

class CheckedTableau(simplex._StandardForm):
    """The integer solver, asserting its tableau stays integral with a
    positive denominator around every pivot."""

    def _pivot(self, rows, objective, pivot_row, pivot_col):
        _assert_integral(self, rows, objective)
        super()._pivot(rows, objective, pivot_row, pivot_col)
        _assert_integral(self, rows, objective)


def _assert_integral(tableau, rows, objective):
    assert type(tableau._d) is int and tableau._d > 0
    for row in rows + ([] if objective is None else [objective]):
        assert all(type(entry) is int for entry in row), row


def _run(solver_cls, objective, constraints, maximize, max_pivots=None):
    guard = ExecutionGuard(max_pivots=max_pivots)
    objective = LinearExpression.coerce(objective)
    if solver_cls is RationalTableau:
        result = solver_cls(objective, constraints, maximize, guard).solve()
    else:           # the integer solver reads the atoms' rows
        problem = simplex.objective_columns(objective,
                                            *index_atoms(constraints))
        result = solver_cls(*problem, maximize, guard).solve()
    return result, guard.pivots


def assert_same_as_oracle(objective, constraints, maximize=True):
    """Same status, value, point and pivot count as the oracle, and the
    pivot budget trips at the same ``max_pivots``."""
    expected, expected_pivots = _run(RationalTableau, objective,
                                     constraints, maximize)
    got, pivots = _run(CheckedTableau, objective, constraints, maximize)
    assert got.status is expected.status
    assert got.value == expected.value
    assert got.point == expected.point
    assert pivots == expected_pivots
    for result in (expected, got):
        assert type(result.value) in (Fraction, type(None))
        assert all(type(v) is Fraction for v in (result.point or {}).values())
    # A budget of one pivot fewer than the oracle's trips both solvers;
    # exactly the oracle's pivots fit (budgets are positive).
    if expected_pivots > 1:
        budget = expected_pivots - 1
        with pytest.raises(PivotBudgetExceeded):
            _run(RationalTableau, objective, constraints, maximize, budget)
        with pytest.raises(PivotBudgetExceeded):
            _run(CheckedTableau, objective, constraints, maximize, budget)
    if expected_pivots:
        _run(CheckedTableau, objective, constraints, maximize,
             expected_pivots)
    return got, pivots


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

POOL = [Variable(f"x{i}") for i in range(5)]

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
coefficients = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def expressions(draw, variables):
    terms = {v: draw(coefficients) for v in variables}
    return LinearExpression(terms)


@st.composite
def problems(draw):
    n_vars = draw(st.integers(0, 5))
    variables = POOL[:n_vars]
    atoms = []
    for _ in range(draw(st.integers(0, 6))):
        lhs = draw(expressions(variables))
        relop = draw(st.sampled_from([Relop.LE, Relop.EQ, Relop.GE]))
        # GE atoms normalize to LE; zero rows to `0 = 0` or `0 = 1`.
        atoms.append(LinearConstraint.build(lhs, relop, draw(rationals)))
    # Redundant equalities: repeat one, or add the sum of two, so an
    # artificial stays basic at zero and its row is dropped.
    equalities = [a for a in atoms if a.relop is Relop.EQ]
    if equalities and draw(st.booleans()):
        first = draw(st.sampled_from(equalities))
        second = draw(st.sampled_from(equalities))
        atoms.append(first)
        atoms.append(Eq(first.expression + second.expression,
                        first.bound + second.bound))
    atoms = draw(st.permutations(atoms))
    objective = draw(expressions(variables)) + draw(rationals)
    return objective, list(atoms), draw(st.booleans())


@st.composite
def degenerate_problems(draw):
    """Many rows through one vertex: ties in every ratio test."""
    n_vars = draw(st.integers(1, 4))
    variables = POOL[:n_vars]
    vertex = {v: draw(st.integers(-2, 2)) for v in variables}
    atoms = []
    for _ in range(draw(st.integers(n_vars, n_vars + 4))):
        lhs = draw(expressions(variables))
        value = sum((c * vertex[v] for v, c in lhs.coefficients.items()),
                    Fraction(0))
        atoms.append(Le(lhs, value))
    objective = draw(expressions(variables))
    return objective, atoms, draw(st.booleans())


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestAgainstRationalOracle:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(problems())
    def test_random_problems(self, problem):
        assert_same_as_oracle(*problem)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(degenerate_problems())
    def test_degenerate_vertices(self, problem):
        assert_same_as_oracle(*problem)


x0, x1, x2, x3, x4 = POOL


class TestNamedProblems:
    def test_beales_cycling_example(self):
        # Beale (1955): the textbook rule cycles here; Bland's does not.
        objective = (Fraction(3, 4) * x1 - 20 * x2 + Fraction(1, 2) * x3
                     - 6 * x4)
        atoms = [Le(Fraction(1, 4) * x1 - 8 * x2 - x3 + 9 * x4, 0),
                 Le(Fraction(1, 2) * x1 - 12 * x2 - Fraction(1, 2) * x3
                    + 3 * x4, 0),
                 Le(x3, 1)] + [Le(-v, 0) for v in (x1, x2, x3, x4)]
        result, pivots = assert_same_as_oracle(objective, atoms)
        assert result.value == Fraction(5, 4)
        assert pivots > 0

    def test_rational_objective(self):
        # MAX u/3 over u <= 7/2.
        result, _ = assert_same_as_oracle(x1 / 3, [Le(x1, Fraction(7, 2))])
        assert result.value == Fraction(7, 6)

    def test_redundant_equality_drops_its_row(self):
        atoms = [Eq(x1 + x2, 2), Eq(2 * x1 + 2 * x2, 4), Eq(x1 - x2, 0)]
        result, _ = assert_same_as_oracle(x1 + 3 * x2 + 1, atoms)
        assert result.point == {x1: 1, x2: 1}
        assert result.value == 5

    def test_negative_clean_up_pivot(self):
        # Phase I ends with the artificial of `-x0 <= 1` basic at zero;
        # its clean-up pivot is on a negative entry, so the denominator
        # is negated back to positive before Phase II pivots again.
        seen = []

        class Recording(CheckedTableau):
            def _pivot(self, rows, objective, pivot_row, pivot_col):
                seen.append((objective is None, rows[pivot_row][pivot_col]))
                super()._pivot(rows, objective, pivot_row, pivot_col)

        true = LinearConstraint.build(LinearExpression.constant(0),
                                      Relop.EQ, 0)
        atoms = [true, Le(x1, 0), Le(-x1, 0), Le(-x0, 1), Le(x0, -1)]
        assert_same_as_oracle(-x1, atoms, maximize=False)
        result, _ = _run(Recording, -x1, atoms, False)
        assert result.point == {x0: -1, x1: 0}
        clean_up = [entry for is_clean_up, entry in seen if is_clean_up]
        assert clean_up and min(clean_up) < 0
        assert not seen[-1][0]

    def test_infeasible(self):
        result, _ = assert_same_as_oracle(
            x1, [Le(x1 + x2, Fraction(1, 3)), Le(-x1 - x2, -1)])
        assert result.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        result, _ = assert_same_as_oracle(x1 - x2, [Le(x1, 1)])
        assert result.status is LPStatus.UNBOUNDED

    def test_zero_rows(self):
        for objective in (LinearExpression.constant(Fraction(5, 2)), x1):
            assert_same_as_oracle(objective, [])

    def test_zero_variables(self):
        true = LinearConstraint.build(LinearExpression.constant(0),
                                      Relop.EQ, 0)
        false = LinearConstraint.build(LinearExpression.constant(0),
                                       Relop.EQ, 1)
        result, _ = assert_same_as_oracle(
            LinearExpression.constant(3), [true])
        assert result == LPResult(LPStatus.OPTIMAL, Fraction(3), {})
        result, _ = assert_same_as_oracle(
            LinearExpression.constant(3), [true, false])
        assert result.status is LPStatus.INFEASIBLE

    def test_rejects_strict_atoms_before_solving(self):
        from repro.constraints.atoms import Lt
        with pytest.raises(ConstraintError):
            simplex.solve(x1, [Lt(x1, 1)])
