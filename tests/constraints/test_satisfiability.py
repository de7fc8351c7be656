"""Unit tests for the satisfiability decision procedure (strict
inequalities, disequalities, mixed systems)."""

from fractions import Fraction

from repro.constraints.atoms import Eq, Ge, Le, Lt, Ne
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.satisfiability import is_satisfiable, sample_point
from repro.constraints.terms import Variable, variables

x, y = variables("x y")


class TestNonStrict:
    def test_satisfiable(self):
        assert is_satisfiable(ConjunctiveConstraint.of(Le(x, 1), Ge(x, 0)))

    def test_unsatisfiable(self):
        assert not is_satisfiable(
            ConjunctiveConstraint.of(Le(x, 0), Ge(x, 1)))

    def test_equality_system(self):
        assert is_satisfiable(
            ConjunctiveConstraint.of(Eq(x + y, 2), Eq(x - y, 0)))

    def test_sample_binds_all_variables(self):
        point = sample_point(ConjunctiveConstraint.of(Le(x + y, 1)))
        assert set(point) == {x, y}


class TestStrict:
    def test_open_interval(self):
        conj = ConjunctiveConstraint.of(Lt(x, 1), Ge(x, 0))
        point = sample_point(conj)
        assert point is not None
        assert 0 <= point[x] < 1

    def test_empty_open_interval(self):
        # 0 < x < 0 has no solution even though the closure has one.
        conj = ConjunctiveConstraint.of(Lt(x, 0), Ge(x, 0))
        assert not is_satisfiable(conj)

    def test_point_region_with_strict_boundary(self):
        # x <= 1 and x >= 1 and x < 1 is unsatisfiable.
        conj = ConjunctiveConstraint.of(Le(x, 1), Ge(x, 1), Lt(x, 1))
        assert not is_satisfiable(conj)

    def test_two_sided_strict(self):
        conj = ConjunctiveConstraint.of(Lt(x, 1), Lt(-x, 0))
        point = sample_point(conj)
        assert 0 < point[x] < 1

    def test_strict_between_converging_lines(self):
        # y > x and y < x is empty.
        conj = ConjunctiveConstraint.of(Lt(x - y, 0), Lt(y - x, 0))
        assert not is_satisfiable(conj)

    def test_unbounded_strict(self):
        conj = ConjunctiveConstraint.of(Lt(-x, 0))
        point = sample_point(conj)
        assert point[x] > 0

    def test_epsilon_named_variable_is_an_ordinary_variable(self):
        # The strict slack is an unnamed column: a variable named like
        # it takes part as any other.
        eps = Variable("__eps__")
        conj = ConjunctiveConstraint.of(Lt(eps, 1), Lt(-eps, 0),
                                        Lt(x - eps, 0))
        point = sample_point(conj)
        assert 0 < point[eps] < 1 and point[x] < point[eps]
        assert conj.holds_at(point)
        assert not is_satisfiable(conj.conjoin(Lt(1, x)))


class TestDisequalities:
    def test_simple(self):
        conj = ConjunctiveConstraint.of(Eq(x, 1), Ne(x, 2))
        assert is_satisfiable(conj)

    def test_contradicting(self):
        conj = ConjunctiveConstraint.of(Eq(x, 1), Ne(x, 1))
        assert not is_satisfiable(conj)

    def test_point_avoids_forbidden_value(self):
        conj = ConjunctiveConstraint.of(Ge(x, 0), Le(x, 1), Ne(2 * x, 1))
        point = sample_point(conj)
        assert point[x] != Fraction(1, 2)

    def test_interval_minus_endpoint(self):
        conj = ConjunctiveConstraint.of(Ge(x, 0), Le(x, 0), Ne(x, 0))
        assert not is_satisfiable(conj)

    def test_multiple_disequalities(self):
        conj = ConjunctiveConstraint.of(
            Ge(x, 0), Le(x, 1), Ne(x, 0), Ne(x, 1),
            Ne(2 * x, 1))
        point = sample_point(conj)
        assert point is not None
        assert conj.holds_at(point)

    def test_disequality_on_combination(self):
        conj = ConjunctiveConstraint.of(Eq(x, y), Ne(x + y, 0))
        point = sample_point(conj)
        assert point[x] == point[y]
        assert point[x] + point[y] != 0


class TestDegenerateInputs:
    def test_empty_conjunction(self):
        assert is_satisfiable(ConjunctiveConstraint.true())

    def test_syntactic_false(self):
        assert sample_point(ConjunctiveConstraint.false()) is None
