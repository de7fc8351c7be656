"""Unit tests for the batched numeric kernel and the columnar packing
layer (verdict soundness, ε fall-through, gating, stats booking)."""

from fractions import Fraction

import pytest

from repro.constraints import kernel, matrix
from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.satisfiability import is_satisfiable
from repro.constraints.terms import LinearExpression, variables
from repro.runtime.context import ExecutionStats, QueryContext
from repro.workloads.random_constraints import (
    make_variables,
    random_infeasible,
    random_polytope,
)

x, y = variables("x y")


def interval(var, lo, hi):
    return [LinearConstraint.build(var, Relop.GE, lo),
            LinearConstraint.build(var, Relop.LE, hi)]


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


class TestPacking:
    def test_pack_shapes(self):
        conj = ConjunctiveConstraint(
            interval(x, 0, 10)
            + [LinearConstraint.build(x + y, Relop.LE, 7),
               LinearConstraint.build(x - y, Relop.NE, 1)])
        ps = matrix.pack_conjunction(conj)
        assert ps is not None
        # The disequality is excluded from the rows but kept exact.
        assert ps.n_rows == 3
        assert ps.has_disequality
        assert not ps.has_equality
        assert len(ps.exact) == 4
        assert all(s >= 1.0 for s in ps.scales)

    def test_overflowing_coefficients_are_unsupported(self):
        huge = Fraction(10) ** 400
        conj = ConjunctiveConstraint(
            [LinearConstraint.build(x, Relop.LE, huge)])
        assert matrix.pack_conjunction(conj) is None

    def test_units_cover_the_constraint_families(self):
        conj = random_polytope(2, 4, seed=1)
        disj = DisjunctiveConstraint([conj])
        atom = conj.atoms[0]
        assert matrix.pack_constraint(atom) is not None
        assert matrix.pack_constraint(conj) is not None
        assert matrix.pack_constraint(disj) is not None
        assert matrix.pack_constraint("not a constraint") is None


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class TestClassifySystem:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_exact_on_random_polytopes(self, seed):
        conj = random_polytope(3, 8, seed=seed)
        verdict = kernel.classify_system(matrix.pack_conjunction(conj))
        if verdict != kernel.UNKNOWN:
            assert (verdict == kernel.FEASIBLE) == is_satisfiable(conj)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_exact_on_infeasible_systems(self, seed):
        conj = random_infeasible(3, 6, seed=seed)
        verdict = kernel.classify_system(matrix.pack_conjunction(conj))
        assert verdict in (kernel.INFEASIBLE, kernel.UNKNOWN)

    def test_near_boundary_falls_through(self):
        # x <= 0 and x >= 0: satisfiable only at the single point 0 —
        # the elastic optimum is exactly 0, inside the ε band, so the
        # kernel must refuse to decide rather than guess either way.
        conj = ConjunctiveConstraint(interval(x, 0, 0))
        assert kernel.classify_system(
            matrix.pack_conjunction(conj)) == kernel.UNKNOWN

    def test_tiny_infeasible_gap_is_not_accepted(self):
        # Empty by a margin far below ε: must never come back FEASIBLE.
        gap = Fraction(1, 10 ** 20)
        conj = ConjunctiveConstraint(
            [LinearConstraint.build(x, Relop.LE, 0),
             LinearConstraint.build(x, Relop.GE, gap)])
        verdict = kernel.classify_system(matrix.pack_conjunction(conj))
        assert verdict in (kernel.INFEASIBLE, kernel.UNKNOWN)
        # ... and symmetrically, a sliver that *is* nonempty must never
        # come back INFEASIBLE (accepting or falling through are both
        # sound).
        sliver = ConjunctiveConstraint(interval(x, 0, gap))
        verdict = kernel.classify_system(matrix.pack_conjunction(sliver))
        assert verdict in (kernel.FEASIBLE, kernel.UNKNOWN)

    def test_strict_atoms_accept_through_exact_verification(self):
        conj = ConjunctiveConstraint(
            [LinearConstraint.build(x, Relop.GT, 0),
             LinearConstraint.build(x, Relop.LT, 10),
             LinearConstraint.build(y, Relop.GT, 0),
             LinearConstraint.build(y, Relop.LT, 10),
             LinearConstraint.build(x + y, Relop.LT, 15)])
        verdict = kernel.classify_system(matrix.pack_conjunction(conj))
        assert verdict in (kernel.FEASIBLE, kernel.UNKNOWN)
        assert verdict == kernel.FEASIBLE  # interior is wide: decided

    def test_disequalities_checked_exactly_on_accept(self):
        # The box is wide, but every disequality must hold at the
        # witness; a reject can never come from an NE atom alone.
        conj = ConjunctiveConstraint(
            interval(x, 0, 10)
            + [LinearConstraint.build(x, Relop.NE, 5)])
        verdict = kernel.classify_system(matrix.pack_conjunction(conj))
        assert verdict in (kernel.FEASIBLE, kernel.UNKNOWN)


class TestClassifyMatrix:
    def test_combines_disjuncts(self):
        sat = random_polytope(2, 4, seed=3)
        unsat = random_infeasible(2, 4, seed=4)
        cm = matrix.ConstraintMatrix.from_constraints([
            DisjunctiveConstraint([unsat, sat]),   # some disjunct sat
            DisjunctiveConstraint([unsat]),        # all disjuncts empty
            None,                                  # not a constraint
        ])
        ctx = QueryContext(stats=ExecutionStats())
        verdicts = kernel.classify_matrix(cm, ctx)
        assert verdicts[0] == kernel.FEASIBLE
        assert verdicts[1] in (kernel.INFEASIBLE, kernel.UNKNOWN)
        assert verdicts[2] == kernel.UNKNOWN
        assert ctx.stats.numeric_accepts == 1
        assert (ctx.stats.numeric_accepts + ctx.stats.numeric_rejects
                + ctx.stats.numeric_fallbacks) == 3

    def test_screen_rejects_box_empty_systems(self):
        dead = ConjunctiveConstraint(interval(x, 10, 0))
        # Normalization may collapse the contradiction syntactically;
        # build it through a coupling the screen has to evaluate.
        wide = ConjunctiveConstraint(
            interval(x, 0, 1) + interval(y, 0, 1)
            + [LinearConstraint.build(x + y, Relop.GE, 10)])
        cm = matrix.ConstraintMatrix.from_constraints([wide])
        assert kernel.classify_matrix(cm) == [kernel.INFEASIBLE]
        assert dead.is_syntactically_false() or kernel.classify_matrix(
            matrix.ConstraintMatrix.from_constraints([dead])
        ) == [kernel.INFEASIBLE]


# ---------------------------------------------------------------------------
# quick_satisfiable gating
# ---------------------------------------------------------------------------


class TestQuickSatisfiable:
    def _dense(self, seed=0):
        return random_polytope(3, 8, seed=seed)

    def test_decides_dense_systems(self):
        ctx = QueryContext(stats=ExecutionStats())
        verdict = kernel.quick_satisfiable(self._dense(), ctx)
        assert verdict is True
        assert ctx.stats.numeric_accepts == 1

    def test_small_systems_stay_exact(self):
        ctx = QueryContext(stats=ExecutionStats())
        conj = ConjunctiveConstraint(interval(x, 0, 10))
        assert kernel.quick_satisfiable(conj, ctx) is None
        assert ctx.stats.numeric_fallbacks == 0  # gated, not fallen

    def test_equality_systems_stay_exact(self):
        ctx = QueryContext(stats=ExecutionStats())
        conj = self._dense().conjoin(
            LinearConstraint.build(x, Relop.EQ, 1))
        assert kernel.quick_satisfiable(conj, ctx) is None

    def test_numeric_off_context_stays_exact(self):
        ctx = QueryContext(stats=ExecutionStats(), numeric=False)
        assert kernel.quick_satisfiable(self._dense(), ctx) is None

    def test_is_satisfiable_books_numeric_stats(self):
        ctx = QueryContext(stats=ExecutionStats(), cache=None)
        assert is_satisfiable(self._dense(seed=9), ctx)
        assert ctx.stats.numeric_accepts == 1
        assert ctx.stats.simplex_solves == 0
