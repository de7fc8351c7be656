"""Tests for the interval prefilter (repro.constraints.bounds)."""

from fractions import Fraction

import pytest

from repro.constraints import bounds
from repro.constraints.atoms import Eq, Ge, Gt, Le, Lt, Ne
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import variables
from repro.runtime.context import QueryContext
from repro.workloads.random_constraints import (
    random_infeasible,
    random_polytope,
)

x, y, z = variables("x y z")


class TestBoxOf:
    def test_simple_bounds(self):
        box = bounds.box_of(ConjunctiveConstraint.of(
            Ge(x, 2), Le(x, 10)))
        assert box[x] == (Fraction(2), False, Fraction(10), False)

    def test_strict_bounds_marked_open(self):
        box = bounds.box_of(ConjunctiveConstraint.of(
            Gt(x, 0), Lt(x, 1)))
        assert box[x] == (Fraction(0), True, Fraction(1), True)

    def test_equality_pins_both_ends(self):
        box = bounds.box_of(ConjunctiveConstraint.of(Eq(x, 3)))
        assert box[x] == (Fraction(3), False, Fraction(3), False)

    def test_negative_coefficient_flips(self):
        # -2x <= -6  <=>  x >= 3
        box = bounds.box_of(ConjunctiveConstraint.of(
            Le(-2 * x, -6)))
        lo, lo_open, hi, hi_open = box[x]
        assert lo == Fraction(3) and not lo_open and hi is None

    def test_contradictory_bounds_give_none(self):
        assert bounds.box_of(ConjunctiveConstraint.of(
            Ge(x, 5), Le(x, 1))) is None

    def test_touching_strict_bounds_give_none(self):
        # x < 1 and x >= 1 is empty.
        assert bounds.box_of(ConjunctiveConstraint.of(
            Lt(x, 1), Ge(x, 1))) is None

    def test_multivariable_atoms_ignored_for_bounds(self):
        box = bounds.box_of(ConjunctiveConstraint.of(
            Le(x + y, 1), Ge(x, 0)))
        assert y not in box
        assert box[x][0] == Fraction(0)

    def test_disequalities_ignored(self):
        box = bounds.box_of(ConjunctiveConstraint.of(
            Ne(x, 0), Ge(x, -1)))
        assert box[x] == (Fraction(-1), False, None, False)


class TestRefutes:
    def test_bound_contradiction(self):
        assert bounds.refutes(ConjunctiveConstraint.of(
            Ge(x, 5), Le(x, 1)))

    def test_multivariable_atom_over_box(self):
        # x, y in [0, 1] but x + y >= 3 is impossible on the box.
        assert bounds.refutes(ConjunctiveConstraint.of(
            Ge(x, 0), Le(x, 1), Ge(y, 0), Le(y, 1), Ge(x + y, 3)))

    def test_open_endpoint_refutation(self):
        # x < 1, y < 1 ==> x + y < 2, so x + y >= 2 cannot hold.
        assert bounds.refutes(ConjunctiveConstraint.of(
            Lt(x, 1), Lt(y, 1), Ge(x + y, 2)))
        # With closed bounds the corner attains 2 — not refutable.
        assert not bounds.refutes(ConjunctiveConstraint.of(
            Le(x, 1), Le(y, 1), Ge(x + y, 2)))

    def test_equality_outside_box(self):
        assert bounds.refutes(ConjunctiveConstraint.of(
            Ge(x, 0), Le(x, 1), Ge(y, 0), Le(y, 1), Eq(x + y, 5)))

    def test_satisfiable_not_refuted(self):
        assert not bounds.refutes(ConjunctiveConstraint.of(
            Ge(x, 0), Le(x, 1), Ge(y, 0), Le(y, 1), Le(x + y, 1)))

    def test_unbounded_direction_not_refuted(self):
        assert not bounds.refutes(ConjunctiveConstraint.of(
            Ge(x, 0), Le(x + y, -10)))

    def test_soundness_on_random_polytopes(self):
        """The prefilter must never refute a satisfiable system."""
        for seed in range(30):
            conj = random_polytope(3, 6, seed=seed)
            assert not bounds.refutes(conj)

    def test_catches_axis_infeasibility(self):
        """random_infeasible contradicts along a single axis — exactly
        the shape the box detects without simplex."""
        for seed in range(10):
            conj = random_infeasible(3, 6, seed=seed)
            assert bounds.refutes(conj)

    def test_counters_advance(self):
        ctx = QueryContext()
        bounds.refutes(ConjunctiveConstraint.of(Ge(x, 5), Le(x, 1)),
                       ctx=ctx)
        bounds.refutes(ConjunctiveConstraint.of(Ge(x, 0)), ctx=ctx)
        assert ctx.stats.box_checks == 2
        assert ctx.stats.box_refutations == 1


class TestConstraintBox:
    def test_disjunction_hull(self):
        dis = DisjunctiveConstraint([
            ConjunctiveConstraint.of(Ge(x, 0), Le(x, 1)),
            ConjunctiveConstraint.of(Ge(x, 5), Le(x, 6)),
        ])
        box = bounds.constraint_box(dis)
        assert box[x] == (Fraction(0), False, Fraction(6), False)

    def test_disjunction_drops_empty_disjuncts(self):
        dis = DisjunctiveConstraint([
            ConjunctiveConstraint.of(Ge(x, 5), Le(x, 1)),
            ConjunctiveConstraint.of(Ge(x, 0), Le(x, 1)),
        ])
        box = bounds.constraint_box(dis)
        assert box[x] == (Fraction(0), False, Fraction(1), False)

    def test_all_empty_disjuncts_give_none(self):
        dis = DisjunctiveConstraint([
            ConjunctiveConstraint.of(Ge(x, 5), Le(x, 1)),
        ])
        assert bounds.constraint_box(dis) is None

    def test_variable_unbounded_in_one_disjunct_dropped(self):
        dis = DisjunctiveConstraint([
            ConjunctiveConstraint.of(Ge(x, 0), Le(x, 1)),
            ConjunctiveConstraint.of(Ge(y, 0)),
        ])
        box = bounds.constraint_box(dis)
        assert x not in box

    def test_existential_uses_body(self):
        ex = ExistentialConjunctiveConstraint(
            ConjunctiveConstraint.of(Ge(x, 0), Le(x, 1), Eq(y, x)),
            (y,))
        box = bounds.constraint_box(ex)
        assert box[x] == (Fraction(0), False, Fraction(1), False)

    def test_rejects_non_constraint(self):
        with pytest.raises(TypeError):
            bounds.constraint_box("not a constraint")


class TestDisjointness:
    def test_disjoint_on_shared_variable(self):
        a = bounds.constraint_box(
            ConjunctiveConstraint.of(Ge(x, 0), Le(x, 1)))
        b = bounds.constraint_box(
            ConjunctiveConstraint.of(Ge(x, 2), Le(x, 3)))
        assert bounds.boxes_disjoint(a, b)

    def test_touching_closed_intervals_not_disjoint(self):
        a = bounds.constraint_box(ConjunctiveConstraint.of(Le(x, 1)))
        b = bounds.constraint_box(ConjunctiveConstraint.of(Ge(x, 1)))
        assert not bounds.boxes_disjoint(a, b)

    def test_touching_open_interval_disjoint(self):
        a = bounds.constraint_box(ConjunctiveConstraint.of(Lt(x, 1)))
        b = bounds.constraint_box(ConjunctiveConstraint.of(Ge(x, 1)))
        assert bounds.boxes_disjoint(a, b)

    def test_different_variables_not_disjoint(self):
        a = bounds.constraint_box(ConjunctiveConstraint.of(Ge(x, 5)))
        b = bounds.constraint_box(ConjunctiveConstraint.of(Le(y, 0)))
        assert not bounds.boxes_disjoint(a, b)

    def test_empty_box_disjoint_from_everything(self):
        b = bounds.constraint_box(ConjunctiveConstraint.of(Ge(y, 0)))
        assert bounds.boxes_disjoint(None, b)
        assert bounds.boxes_disjoint(b, None)
