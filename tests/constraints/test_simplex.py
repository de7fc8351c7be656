"""Unit tests for the exact rational simplex."""

from fractions import Fraction

import pytest

from repro.constraints.atoms import Eq, Ge, Le
from repro.constraints.simplex import LPStatus, feasible_point, solve
from repro.constraints.terms import LinearExpression, variables
from repro.errors import ConstraintError

x, y, z = variables("x y z")


class TestBasics:
    def test_simple_max(self):
        # max x + y  s.t. x <= 2, y <= 3
        result = solve(x + y, [Le(x, 2), Le(y, 3)])
        assert result.status is LPStatus.OPTIMAL
        assert result.value == 5
        assert result.point[x] == 2
        assert result.point[y] == 3

    def test_simple_min(self):
        result = solve(x, [Ge(x, -7).weakened()], maximize=False)
        assert result.value == -7

    def test_min_via_flag(self):
        result = solve(x + y, [Ge(x, 1), Ge(y, 2)], maximize=False)
        assert result.value == 3

    def test_equality_constraints(self):
        # max y s.t. x + y = 4, x >= 1
        result = solve(
            LinearExpression.coerce(y), [Eq(x + y, 4), Ge(x, 1)])
        assert result.value == 3
        assert result.point[x] == 1

    def test_unbounded(self):
        result = solve(x, [Ge(x, 0)])
        assert result.status is LPStatus.UNBOUNDED

    def test_infeasible(self):
        result = solve(x, [Le(x, 0), Ge(x, 1)])
        assert result.status is LPStatus.INFEASIBLE

    def test_no_constraints_zero_objective(self):
        result = solve(LinearExpression.constant(0), [])
        assert result.status is LPStatus.OPTIMAL
        assert result.value == 0

    def test_no_constraints_nonzero_objective(self):
        result = solve(LinearExpression.coerce(x), [])
        assert result.status is LPStatus.UNBOUNDED

    def test_constant_objective_offset(self):
        result = solve(x + 10, [Le(x, 2), Ge(x, 0)])
        assert result.value == 12

    def test_rejects_strict_atoms(self):
        from repro.constraints.atoms import Lt
        with pytest.raises(ConstraintError):
            solve(x, [Lt(x, 1)])


class TestFreeVariables:
    def test_negative_optimum(self):
        # Variables are unrestricted: max -x s.t. x >= -5 gives 5.
        result = solve(-x, [Ge(x, -5)])
        assert result.value == 5
        assert result.point[x] == -5

    def test_mixed_sign_region(self):
        result = solve(y - x, [Ge(x, -3), Le(y, -1)])
        assert result.value == 2


class TestExactness:
    def test_fractional_optimum(self):
        # max x + y s.t. 3x + y <= 4, x + 3y <= 4 -> optimum at (1,1),
        # but with 2x + y <= 2, x + 2y <= 2 -> optimum (2/3, 2/3).
        result = solve(x + y, [Le(2 * x + y, 2), Le(x + 2 * y, 2)])
        assert result.value == Fraction(4, 3)
        assert result.point[x] == Fraction(2, 3)

    def test_tiny_coefficients(self):
        eps = Fraction(1, 10 ** 12)
        result = solve(x, [Le(eps * x, eps)])
        assert result.value == 1

    @pytest.mark.parametrize("maximize", [True, False])
    def test_optimum_and_witness_are_fractions(self, maximize):
        # Every pivot divides one integer row entry by another (3 by 2,
        # 1 by 7, ...): exact only if the tableau holds Fractions.
        system = [Le(2 * x + 3 * y, 7), Le(3 * x + y, 5),
                  Le(-2 * x - 3 * y, 7), Le(-3 * x - y, 5),
                  Eq(z - 2 * x, 0)]
        result = solve(x + y, system, maximize=maximize)
        assert result.is_optimal
        assert result.value == (Fraction(19, 7) if maximize
                                else Fraction(-19, 7))
        assert type(result.value) is Fraction
        assert all(type(c) is Fraction for c in result.point.values())
        point = feasible_point(system)
        assert all(type(c) is Fraction for c in point.values())


class TestDegenerate:
    def test_redundant_equalities(self):
        result = solve(x, [Eq(x + y, 2), Eq(2 * x + 2 * y, 4), Le(x, 1)])
        assert result.status is LPStatus.OPTIMAL
        assert result.value == 1

    def test_implied_equality_from_inequalities(self):
        result = solve(x, [Le(x + y, 1), Ge(x + y, 1), Le(x, 0)])
        assert result.value == 0

    def test_degenerate_vertex_no_cycle(self):
        # Klee-Minty-flavoured degenerate system; Bland's rule must
        # terminate.
        atoms = [
            Le(x, 1),
            Le(4 * x + y, 8),
            Le(8 * x + 4 * y + z, 64),
            Ge(x, 0), Ge(y, 0), Ge(z, 0),
        ]
        result = solve(100 * x + 10 * y + z, atoms)
        assert result.status is LPStatus.OPTIMAL
        assert result.value > 0


class TestFeasiblePoint:
    def test_feasible(self):
        point = feasible_point([Le(x, 1), Ge(x, 0), Eq(y, x + 1)])
        assert point is not None
        assert 0 <= point[x] <= 1
        assert point[y] == point[x] + 1

    def test_infeasible(self):
        assert feasible_point([Le(x, 0), Ge(x, 2)]) is None

    def test_point_satisfies_all(self):
        atoms = [Le(x + y + z, 10), Ge(x - y, 2), Eq(z, 3)]
        point = feasible_point(atoms)
        for atom in atoms:
            assert atom.holds_at(point)
