"""ExecutionGuard: budgets trip on real engine workloads.

Each guarded hot path — simplex pivots, disequality branching,
disjunct products, canonicalisation — is driven to its budget with a
small genuine input (no fault injection here; see test_faults.py for
the injected variants).
"""

from fractions import Fraction

import pytest

from repro import errors
from repro.constraints import simplex
from repro.constraints.atoms import Eq, Le, Lt, Ne
from repro.constraints.canonical import (
    canonical_conjunctive,
    remove_subsumed_disjuncts,
)
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import DisjunctiveExistentialConstraint
from repro.constraints.terms import variables
from repro.runtime import ExecutionGuard, QueryContext, current_context

x, y, z = variables("x y z")


class FakeClock:
    """A deterministic clock: every read advances one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestConstruction:
    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            ExecutionGuard(on_exhaustion="panic")

    def test_rejects_non_positive_limits(self):
        with pytest.raises(ValueError):
            ExecutionGuard(max_pivots=0)
        with pytest.raises(ValueError):
            ExecutionGuard(deadline=-1)

    def test_repr_names_limits(self):
        guard = ExecutionGuard(max_pivots=7, deadline=2.0)
        assert "max_pivots=7" in repr(guard)
        assert "deadline=2.0" in repr(guard)


class TestAmbientActivation:
    def test_no_guard_by_default(self):
        assert current_context().guard is None

    def test_guarded_activates_and_restores(self):
        guard = ExecutionGuard(max_pivots=10)
        with QueryContext(guard=guard).activate() as active:
            assert active.guard is guard
            assert current_context().guard is guard
        assert current_context().guard is None

    def test_guarded_none_is_noop(self):
        with QueryContext(guard=None).activate() as active:
            assert active.guard is None
            assert current_context().guard is None

    def test_guards_nest(self):
        outer = ExecutionGuard(max_pivots=10)
        inner = ExecutionGuard(max_pivots=5)
        with QueryContext(guard=outer).activate():
            with current_context().derive(guard=inner).activate():
                assert current_context().guard is inner
            assert current_context().guard is outer


class TestPivotBudget:
    def test_simplex_counts_pivots(self):
        guard = ExecutionGuard()
        with QueryContext(guard=guard).activate():
            result = simplex.solve(x + y, [Le(x, 1), Le(y, 1)])
        assert result.is_optimal
        assert guard.pivots > 0
        assert guard.simplex_calls == 1

    def test_pivot_budget_trips(self):
        guard = ExecutionGuard(max_pivots=1)
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.PivotBudgetExceeded) as info:
                simplex.solve(x + y, [Le(x, 1), Le(y, 1), Le(x + y, 3)])
        assert info.value.budget == "pivots"
        assert info.value.limit == 1
        assert info.value.spent > 1

    def test_satisfiability_spends_pivots(self):
        conj = ConjunctiveConstraint.of(Le(x, 1), Le(-x, 0), Lt(y, 5))
        guard = ExecutionGuard(max_pivots=1)
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.PivotBudgetExceeded):
                conj.is_satisfiable()


class TestBranchBudget:
    def test_disequality_branching_trips(self):
        # Unsatisfiable: x = 0 and x != 0; the extra disequalities on y
        # force the worklist to enumerate every leaf before concluding.
        conj = ConjunctiveConstraint.of(
            Eq(x, 0), Ne(x, 0), Ne(y, 1), Ne(y, 2), Ne(y, 3))
        guard = ExecutionGuard(max_branches=4)
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.BranchBudgetExceeded) as info:
                conj.is_satisfiable()
        assert info.value.budget == "branches"
        assert info.value.spent == 5

    def test_branches_counted_without_limit(self):
        conj = ConjunctiveConstraint.of(Eq(x, 0), Ne(x, 1))
        guard = ExecutionGuard()
        with QueryContext(guard=guard).activate():
            assert conj.is_satisfiable()
        assert guard.branches >= 1

    def test_many_disequalities_do_not_recurse(self):
        # 3000 pending disequalities would overflow the recursive DFS;
        # the iterative worklist finds the satisfiable first leaf fast.
        atoms = [Ne(x, i) for i in range(3000)]
        conj = ConjunctiveConstraint(atoms + [Eq(y, 0)])
        assert conj.is_satisfiable()


class TestDisjunctBudget:
    def test_conjoin_product_trips(self):
        left = DisjunctiveConstraint(
            ConjunctiveConstraint.of(Eq(x, i)) for i in range(3))
        right = DisjunctiveConstraint(
            ConjunctiveConstraint.of(Eq(y, i)) for i in range(3))
        guard = ExecutionGuard(max_disjuncts=5)
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.DisjunctBudgetExceeded) as info:
                left.conjoin(right)
        assert info.value.budget == "disjuncts"
        assert info.value.spent == 9

    def test_peak_disjuncts_recorded(self):
        guard = ExecutionGuard()
        with QueryContext(guard=guard).activate():
            DisjunctiveConstraint(
                ConjunctiveConstraint.of(Eq(x, i)) for i in range(4))
        assert guard.peak_disjuncts == 4

    def test_dex_family_also_capped(self):
        guard = ExecutionGuard(max_disjuncts=2)
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.DisjunctBudgetExceeded):
                DisjunctiveExistentialConstraint.of(
                    DisjunctiveConstraint(
                        ConjunctiveConstraint.of(Eq(x, i))
                        for i in range(3)))


class TestCanonicalBudget:
    def test_redundancy_removal_trips(self):
        conj = ConjunctiveConstraint.of(
            Le(x, 1), Le(x, 2), Le(x, 3), Le(y, 1), Le(y, 2))
        guard = ExecutionGuard(max_canonical=2)
        with QueryContext(guard=guard).activate():
            with pytest.raises(
                    errors.CanonicalizationBudgetExceeded) as info:
                canonical_conjunctive(conj)
        assert info.value.budget == "canonical"

    def test_subsumption_removal_trips(self):
        dis = DisjunctiveConstraint(
            ConjunctiveConstraint.of(Le(x, i)) for i in range(1, 5))
        guard = ExecutionGuard(max_canonical=1)
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.CanonicalizationBudgetExceeded):
                remove_subsumed_disjuncts(dis)


class TestDeadline:
    def test_deadline_trips_deterministically(self):
        clock = FakeClock()
        guard = ExecutionGuard(deadline=3, clock=clock)
        guard.start()
        guard.checkpoint("warm")  # elapsed grows 1s per clock read
        with pytest.raises(errors.DeadlineExceeded) as info:
            for _ in range(10):
                guard.checkpoint("loop")
        assert info.value.budget == "deadline"
        assert info.value.limit == 3
        assert info.value.spent > 3

    def test_deadline_checked_inside_simplex(self):
        clock = FakeClock()
        guard = ExecutionGuard(deadline=2, clock=clock)
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.DeadlineExceeded):
                # Each pivot tick reads the clock once → trips mid-solve.
                simplex.solve(x + y + z,
                              [Le(x, 1), Le(y, 1), Le(z, 1),
                               Le(x + y + z, 2)])

    def test_elapsed_zero_before_start(self):
        guard = ExecutionGuard(deadline=1)
        assert guard.elapsed() == 0.0


class TestCancellation:
    def test_cancel_observed_at_checkpoint(self):
        guard = ExecutionGuard()
        guard.checkpoint("fine")
        guard.cancel()
        with pytest.raises(errors.QueryCancelled) as info:
            guard.checkpoint("evaluator")
        assert info.value.budget == "cancellation"
        assert guard.cancelled

    def test_cancel_stops_engine_work(self):
        conj = ConjunctiveConstraint.of(Le(x, 1))
        guard = ExecutionGuard()
        guard.cancel()
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.QueryCancelled):
                conj.is_satisfiable()


class TestDiagnostics:
    def test_exception_hierarchy(self):
        for leaf in (errors.DeadlineExceeded, errors.PivotBudgetExceeded,
                     errors.BranchBudgetExceeded,
                     errors.DisjunctBudgetExceeded,
                     errors.CanonicalizationBudgetExceeded,
                     errors.QueryCancelled):
            assert issubclass(leaf, errors.ResourceExhausted)
            assert issubclass(leaf, errors.ReproError)

    def test_message_carries_structure(self):
        exc = errors.PivotBudgetExceeded(
            "pivots budget exhausted", budget="pivots", limit=10,
            spent=11, fragment="simplex")
        assert exc.budget == "pivots"
        assert exc.limit == 10
        assert exc.spent == 11
        assert exc.fragment == "simplex"
        assert "budget=pivots" in str(exc)
        assert "limit=10" in str(exc)
        assert "in simplex" in str(exc)

    def test_spend_summary(self):
        guard = ExecutionGuard()
        conj = ConjunctiveConstraint.of(Le(x, 1), Ne(x, 5))
        with QueryContext(guard=guard).activate():
            assert conj.is_satisfiable()
        spend = guard.spend()
        assert spend["pivots"] > 0
        assert spend["branches"] >= 1
        assert spend["simplex_calls"] >= 1


class TestUnguardedBehaviour:
    def test_results_identical_without_guard(self):
        conj = ConjunctiveConstraint.of(
            Le(x, 10), Le(-x, 0), Ne(x, 5), Lt(y, 3))
        unguarded_point = conj.sample_point()
        guard = ExecutionGuard(max_pivots=10_000, max_branches=1_000)
        with QueryContext(guard=guard).activate():
            guarded_point = conj.sample_point()
        assert unguarded_point == guarded_point
        assert unguarded_point[x] >= 0
        assert unguarded_point[x] != Fraction(5)
