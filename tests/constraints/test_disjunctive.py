"""Unit tests for disjunctive constraints."""

from fractions import Fraction

import pytest

from repro.constraints.atoms import Eq, Ge, Le, Lt, Ne
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.terms import variables
from repro.errors import ConstraintFamilyError

x, y, z = variables("x y z")


def conj(*atoms):
    return ConjunctiveConstraint.of(*atoms)


def interval(lo, hi):
    return conj(Ge(x, lo), Le(x, hi))


class TestConstruction:
    def test_false_is_empty(self):
        assert DisjunctiveConstraint.false().is_syntactically_false()

    def test_true(self):
        assert DisjunctiveConstraint.true().is_true()

    def test_false_disjuncts_dropped(self):
        d = DisjunctiveConstraint([ConjunctiveConstraint.false(),
                                   interval(0, 1)])
        assert len(d) == 1

    def test_true_disjunct_collapses(self):
        d = DisjunctiveConstraint([interval(0, 1),
                                   ConjunctiveConstraint.true()])
        assert d.is_true()
        assert len(d) == 1

    def test_syntactic_duplicates_removed(self):
        d = DisjunctiveConstraint([interval(0, 1), interval(0, 1)])
        assert len(d) == 1

    def test_atoms_coerced(self):
        d = DisjunctiveConstraint([Le(x, 1)])
        assert len(d) == 1

    def test_type_check(self):
        with pytest.raises(TypeError):
            DisjunctiveConstraint(["nope"])


class TestLogic:
    def test_disjoin(self):
        d = DisjunctiveConstraint([interval(0, 1)]).disjoin(
            DisjunctiveConstraint([interval(2, 3)]))
        assert len(d) == 2

    def test_conjoin_distributes(self):
        d = DisjunctiveConstraint([interval(0, 1), interval(2, 3)])
        result = d.conjoin(conj(Le(x, 2)))
        assert result.holds_at({x: 1})
        assert result.holds_at({x: 2})
        assert not result.holds_at({x: 3})

    def test_conjoin_two_disjunctions(self):
        left = DisjunctiveConstraint([interval(0, 2), interval(4, 6)])
        right = DisjunctiveConstraint([interval(1, 5)])
        result = left.conjoin(right)
        assert result.holds_at({x: 1})
        assert result.holds_at({x: 5})
        assert not result.holds_at({x: 3})

    def test_negation_of_conjunctive(self):
        d = DisjunctiveConstraint.negation_of_conjunctive(interval(0, 1))
        assert d.holds_at({x: -1})
        assert d.holds_at({x: 2})
        assert not d.holds_at({x: Fraction(1, 2)})

    def test_full_negation_roundtrip_semantics(self):
        d = DisjunctiveConstraint([interval(0, 1), interval(2, 3)])
        negated = d.negate()
        for value in (-1, 0, 1, Fraction(3, 2), 2, 3, 4):
            assert d.holds_at({x: value}) != negated.holds_at({x: value})

    def test_rename(self):
        d = DisjunctiveConstraint([interval(0, 1)])
        assert d.rename({x: z}).variables == {z}


class TestSatEntailment:
    def test_satisfiable_any_disjunct(self):
        d = DisjunctiveConstraint([conj(Le(x, 0), Ge(x, 1)),
                                   interval(0, 1)])
        assert d.is_satisfiable()

    def test_unsatisfiable(self):
        d = DisjunctiveConstraint([conj(Le(x, 0), Ge(x, 1))])
        assert not d.is_satisfiable()

    def test_sample_point(self):
        d = DisjunctiveConstraint([conj(Le(x, 0), Ge(x, 1)),
                                   interval(5, 6)])
        point = d.sample_point()
        assert 5 <= point[x] <= 6

    def test_entails(self):
        small = DisjunctiveConstraint([interval(0, 1), interval(2, 3)])
        big = DisjunctiveConstraint([interval(0, 3)])
        assert small.entails(big)
        assert not big.entails(small)

    def test_entails_conjunctive_rhs(self):
        d = DisjunctiveConstraint([interval(0, 1), interval(2, 3)])
        assert d.entails(interval(0, 3))


class TestProjection:
    def test_projection_distributes(self):
        d = DisjunctiveConstraint([
            conj(Ge(x, 0), Le(x, 1), Eq(y, x)),
            conj(Ge(x, 2), Le(x, 3), Eq(y, x + 10)),
        ])
        result = d.project([y])
        assert result.holds_at({y: Fraction(1, 2)})
        assert result.holds_at({y: 12})
        assert not result.holds_at({y: 5})

    def test_restricted_projection_guard(self):
        four = conj(Le(x + y + z, 1), Ge(x, 0))
        w, = variables("w")
        d = DisjunctiveConstraint([four.conjoin(Ge(w, 0))])
        with pytest.raises(ConstraintFamilyError):
            d.restricted_project([x, y])  # eliminates 2 of 4, keeps 2
        # keep-one is fine:
        d.restricted_project([x])

    def test_restricted_projection_eliminate_one(self):
        d = DisjunctiveConstraint([conj(Le(x + y + z, 1), Ge(z, 0))])
        result = d.restricted_project([x, y])
        assert z not in result.variables

    def test_projection_splits_disequalities(self):
        # exists x in [0,2], x != 1, y = x  ->  y in [0,1) u (1,2]
        d = DisjunctiveConstraint([
            conj(Ge(x, 0), Le(x, 2), Ne(x, 1), Eq(y, x))])
        result = d.project([y])
        assert result.holds_at({y: 0})
        assert result.holds_at({y: 2})
        assert not result.holds_at({y: 1})
        assert len(result) == 2


class TestIdentity:
    def test_order_insensitive(self):
        a = DisjunctiveConstraint([interval(0, 1), interval(2, 3)])
        b = DisjunctiveConstraint([interval(2, 3), interval(0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_str_false(self):
        assert str(DisjunctiveConstraint.false()) == "FALSE"
