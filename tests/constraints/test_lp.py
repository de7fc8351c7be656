"""Unit tests for the MAX/MIN SUBJECT TO operators."""

from fractions import Fraction

import pytest

from repro.constraints.atoms import Eq, Ge, Le, Lt, Ne
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.existential import ExistentialConjunctiveConstraint
from repro.constraints.lp import max_value, maximize, min_value, minimize
from repro.constraints.terms import variables
from repro.errors import ConstraintError, InfeasibleError, UnboundedError

x, y = variables("x y")


def conj(*atoms):
    return ConjunctiveConstraint.of(*atoms)


class TestMaxMin:
    def test_max(self):
        result = max_value(x + y, conj(Le(x, 2), Le(y, 3)))
        assert result.value == 5
        assert result.attained

    def test_min(self):
        result = min_value(x, conj(Ge(x, -7)))
        assert result.value == -7

    def test_max_point(self):
        result = max_value(x + y, conj(Le(x, 2), Le(y, 3)))
        assert result.point_on([x, y]) == {x: 2, y: 3}

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            max_value(x, conj(Le(x, 0), Ge(x, 1)))

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            max_value(x, conj(Ge(x, 0)))

    def test_min_unbounded(self):
        with pytest.raises(UnboundedError):
            min_value(x, conj(Le(x, 0)))

    def test_fractional(self):
        result = max_value(x + y, conj(Le(2 * x + y, 2), Le(x + 2 * y, 2)))
        assert result.value == Fraction(4, 3)


    @pytest.mark.parametrize("optimum", [max_value, min_value])
    def test_value_and_witness_are_fractions(self, optimum):
        # Pivots divide integer row entries (3 by 2, 1 by 7, ...).
        result = optimum(x - y, conj(Le(2 * x + 3 * y, 7), Le(3 * x + y, 5),
                                     Ge(2 * x + 3 * y, -7), Ge(3 * x + y, -5)))
        assert type(result.value) is Fraction
        assert all(type(c) is Fraction for c in result.point.values())


class TestStrictness:
    def test_supremum_not_attained(self):
        result = max_value(x, conj(Lt(x, 1)))
        assert result.value == 1
        assert not result.attained

    def test_strict_elsewhere_attained(self):
        result = max_value(x, conj(Le(x, 1), Lt(y, 1)))
        assert result.value == 1
        assert result.attained
        assert result.point[y] < 1

    def test_empty_open_region(self):
        with pytest.raises(InfeasibleError):
            max_value(x, conj(Lt(x, 0), Ge(x, 0)))


class TestExistentialSystems:
    def test_quantified_witness_participates(self):
        # max x s.t. exists y: x = y, y <= 4
        ex = ExistentialConjunctiveConstraint(
            conj(Eq(x, y), Le(y, 4)), [y])
        result = max_value(x, ex)
        assert result.value == 4

    def test_atom_system(self):
        result = max_value(x, Le(x, 9))
        assert result.value == 9

    def test_bad_system_type(self):
        with pytest.raises(ConstraintError):
            max_value(x, "not a system")

    def test_disequality_rejected(self):
        with pytest.raises(ConstraintError):
            max_value(x, conj(Le(x, 1), Ne(x, 0)))


class TestRawSolvers:
    def test_maximize_status(self):
        assert maximize(x, conj(Le(x, 3))).value == 3

    def test_minimize_status(self):
        assert minimize(x, conj(Ge(x, 3))).value == 3

    def test_infeasible_status(self):
        assert maximize(x, conj(Le(x, 0), Ge(x, 1))).is_infeasible
