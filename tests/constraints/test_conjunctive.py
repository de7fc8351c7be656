"""Unit tests for conjunctive constraints."""

from fractions import Fraction

import pytest

from repro.constraints.atoms import Eq, Ge, Le, Lt, Ne
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.terms import variables
from repro.errors import InfeasibleError

x, y, z = variables("x y z")


def unit_square() -> ConjunctiveConstraint:
    return ConjunctiveConstraint.of(Ge(x, 0), Le(x, 1), Ge(y, 0), Le(y, 1))


class TestConstruction:
    def test_true(self):
        assert ConjunctiveConstraint.true().is_true()

    def test_false(self):
        assert ConjunctiveConstraint.false().is_syntactically_false()

    def test_duplicate_atoms_removed(self):
        conj = ConjunctiveConstraint.of(Le(x, 1), Le(2 * x, 2))
        assert len(conj) == 1

    def test_trivially_true_atoms_dropped(self):
        conj = ConjunctiveConstraint.of(Le(x - x, 5), Le(x, 1))
        assert len(conj) == 1

    def test_trivially_false_atom_collapses(self):
        conj = ConjunctiveConstraint.of(Le(x, 1), Ge(x - x, 5))
        assert conj.is_syntactically_false()

    def test_type_checked(self):
        with pytest.raises(TypeError):
            ConjunctiveConstraint(["not an atom"])

    def test_variables(self):
        assert unit_square().variables == {x, y}


class TestClassifiers:
    def test_equalities(self):
        conj = ConjunctiveConstraint.of(Eq(x, 1), Le(y, 2), Ne(z, 0))
        assert len(conj.equalities()) == 1
        assert len(conj.inequalities()) == 1
        assert len(conj.disequalities()) == 1

    def test_strict_counts_as_inequality(self):
        conj = ConjunctiveConstraint.of(Lt(x, 1))
        assert len(conj.inequalities()) == 1


class TestOperations:
    def test_conjoin(self):
        combined = unit_square().conjoin(Le(x + y, 1))
        assert len(combined) == 5

    def test_conjoin_conjunction(self):
        other = ConjunctiveConstraint.of(Le(z, 0))
        assert len(unit_square().conjoin(other)) == 5

    def test_and_operator(self):
        assert len(unit_square() & Le(x + y, 1)) == 5

    def test_holds_at(self):
        assert unit_square().holds_at({x: Fraction(1, 2), y: 0})
        assert not unit_square().holds_at({x: 2, y: 0})

    def test_rename(self):
        conj = unit_square().rename({x: z})
        assert conj.variables == {z, y}


class TestSatisfiability:
    def test_satisfiable(self):
        assert unit_square().is_satisfiable()

    def test_unsatisfiable(self):
        conj = ConjunctiveConstraint.of(Le(x, 0), Ge(x, 1))
        assert not conj.is_satisfiable()

    def test_sample_point_member(self):
        conj = unit_square().conjoin(Lt(x + y, 1)).conjoin(Ne(x, y))
        point = conj.sample_point()
        assert point is not None
        assert conj.holds_at(point)

    def test_false_unsatisfiable(self):
        assert not ConjunctiveConstraint.false().is_satisfiable()


class TestEliminateEqualities:
    def test_single_equality(self):
        conj = ConjunctiveConstraint.of(Eq(x, y + 1), Le(x, 3))
        reduced = conj.eliminate_equalities()
        assert x not in reduced.variables
        # x = y + 1, x <= 3  ->  y <= 2
        assert reduced.holds_at({y: 2})
        assert not reduced.holds_at({y: 3})

    def test_keep_set_respected(self):
        conj = ConjunctiveConstraint.of(Eq(x, y + 1), Le(x, 3))
        reduced = conj.eliminate_equalities(keep=frozenset({x, y}))
        # Both variables kept: the equality only mentions keep vars.
        assert len(reduced.equalities()) == 1

    def test_chained_equalities(self):
        conj = ConjunctiveConstraint.of(Eq(x, y), Eq(y, z), Le(z, 5))
        reduced = conj.eliminate_equalities(keep=frozenset({z}))
        assert reduced.variables <= {z}

    def test_inconsistent_equalities_collapse(self):
        conj = ConjunctiveConstraint.of(Eq(x, 1), Eq(x, 2))
        reduced = conj.eliminate_equalities()
        assert reduced.is_syntactically_false()


class TestBounds:
    def test_bounds_of_square(self):
        lo, hi = unit_square().variable_bounds(x)
        assert (lo, hi) == (0, 1)

    def test_unbounded_side(self):
        conj = ConjunctiveConstraint.of(Ge(x, 2))
        lo, hi = conj.variable_bounds(x)
        assert lo == 2
        assert hi is None

    def test_empty_region_raises(self):
        conj = ConjunctiveConstraint.of(Le(x, 0), Ge(x, 1))
        with pytest.raises(InfeasibleError):
            conj.variable_bounds(x)

    def test_empty_open_region_raises(self):
        # Its closure is the point x = 0; the region itself is empty.
        conj = ConjunctiveConstraint.of(Lt(x, 0), Ge(x, 0))
        with pytest.raises(InfeasibleError):
            conj.variable_bounds(x)


class TestIdentity:
    def test_order_insensitive_equality(self):
        a = ConjunctiveConstraint.of(Le(x, 1), Le(y, 1))
        b = ConjunctiveConstraint.of(Le(y, 1), Le(x, 1))
        assert a == b
        assert hash(a) == hash(b)

    def test_str_true_false(self):
        assert str(ConjunctiveConstraint.true()) == "TRUE"
        assert str(ConjunctiveConstraint.false()) == "FALSE"

    def test_solve_for_requires_equality(self):
        # Equality elimination solves only equality rows for a variable.
        conj = ConjunctiveConstraint.of(Le(x + y, 2), Le(x, 1), Ne(x - y, 0))
        assert conj.eliminate_equalities() == conj

    def test_solve_for_requires_occurrence(self):
        # ... and only for a variable the equality has and ``keep`` lacks.
        conj = ConjunctiveConstraint.of(Le(x + y, 2), Eq(x, 1))
        assert conj.eliminate_equalities(keep=frozenset({x})) == conj
        assert str(conj.eliminate_equalities()) == "y <= 1"
