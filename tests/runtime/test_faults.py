"""Fault injection: every degradation path, deterministically.

The FaultPlan forces budget exhaustion, simplex failure, and
cancellation without pathological inputs, so the degrade/fail policies
of both query engines are covered by fast tests.
"""

import pytest

from repro import errors, lyric
from repro.constraints import simplex
from repro.constraints.atoms import Eq, Le, Ne
from repro.constraints.canonical import canonical_conjunctive
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.terms import variables
from repro.core.translator import translate
from repro.model.office import (
    add_file_cabinet,
    add_regions,
    build_office_database,
)
from repro.model.relations import flatten
from repro.runtime import ExecutionGuard, FaultPlan, QueryContext
from repro.sqlc import engine

x, y = variables("x y")

#: The paper's worked example — exercises simplex/satisfiability on
#: both evaluation paths.
PAPER_QUERY = """
    SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
    FROM Office_Object CO
    WHERE CO.extent[E] and CO.translation[D]
"""


@pytest.fixture(scope="module")
def db():
    database, _ = build_office_database()
    add_file_cabinet(database)
    add_regions(database)
    return database


class TestFaultPlanValidation:
    def test_unknown_budget_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(exhaust_budget="quantum")

    def test_default_plan_injects_nothing(self):
        plan = FaultPlan()
        assert not plan.exhausts("pivots", 10 ** 6)
        assert not plan.simplex_should_fail(1)
        assert not plan.cancels_at(1)


class TestForcedExhaustion:
    """Each budget trips on demand, with no configured limit at all."""

    def test_pivots(self):
        guard = ExecutionGuard(
            faults=FaultPlan(exhaust_budget="pivots", exhaust_after=1))
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.PivotBudgetExceeded) as info:
                simplex.solve(x + y, [Le(x, 1), Le(y, 1)])
        assert info.value.fragment == "fault-injection"

    def test_branches(self):
        conj = ConjunctiveConstraint.of(Le(x, 1), Ne(x, 0))
        guard = ExecutionGuard(
            faults=FaultPlan(exhaust_budget="branches"))
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.BranchBudgetExceeded) as info:
                conj.is_satisfiable()
        assert info.value.fragment == "fault-injection"

    def test_disjuncts(self):
        guard = ExecutionGuard(
            faults=FaultPlan(exhaust_budget="disjuncts", exhaust_after=2))
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.DisjunctBudgetExceeded):
                DisjunctiveConstraint(
                    ConjunctiveConstraint.of(Eq(x, i)) for i in range(3))

    def test_canonical(self):
        conj = ConjunctiveConstraint.of(Le(x, 1), Le(x, 2), Le(y, 3))
        guard = ExecutionGuard(
            faults=FaultPlan(exhaust_budget="canonical", exhaust_after=1))
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.CanonicalizationBudgetExceeded):
                canonical_conjunctive(conj)

    def test_deadline(self):
        guard = ExecutionGuard(
            faults=FaultPlan(exhaust_budget="deadline", exhaust_after=2))
        guard.start()
        guard.checkpoint()
        guard.checkpoint()
        with pytest.raises(errors.DeadlineExceeded) as info:
            guard.checkpoint()
        assert info.value.fragment == "fault-injection"


class TestInjectedSimplexFailure:
    def test_fails_on_exact_call(self):
        guard = ExecutionGuard(faults=FaultPlan(fail_simplex_at=2))
        with QueryContext(guard=guard).activate():
            first = simplex.solve(x, [Le(x, 1)])
            assert first.is_optimal
            with pytest.raises(errors.InjectedFaultError):
                simplex.solve(x, [Le(x, 1)])

    def test_error_is_catchable_as_repro_error(self):
        guard = ExecutionGuard(faults=FaultPlan(fail_simplex_at=1))
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.ReproError):
                ConjunctiveConstraint.of(Le(x, 1)).is_satisfiable()


class TestInjectedCancellation:
    def test_cancels_at_nth_checkpoint(self):
        guard = ExecutionGuard(faults=FaultPlan(cancel_at_checkpoint=3))
        guard.start()
        guard.checkpoint()
        guard.checkpoint()
        with pytest.raises(errors.QueryCancelled):
            guard.checkpoint()

    def test_cancellation_reaches_query(self, db):
        guard = ExecutionGuard(faults=FaultPlan(cancel_at_checkpoint=1))
        with pytest.raises(errors.QueryCancelled):
            lyric.query(db, PAPER_QUERY, guard=guard)


class TestEvaluatorDegrade:
    def test_fail_policy_raises(self, db):
        guard = ExecutionGuard(
            faults=FaultPlan(exhaust_budget="pivots", exhaust_after=5))
        with pytest.raises(errors.PivotBudgetExceeded):
            lyric.query(db, PAPER_QUERY, guard=guard)

    def test_degrade_returns_partial_with_warning(self, db):
        full = lyric.query(db, PAPER_QUERY)
        assert not full.is_partial

        # Cancel midway through the full run's checkpoint count so at
        # least one binding environment completes and at least one
        # does not.
        probe = ExecutionGuard()
        lyric.query(db, PAPER_QUERY, guard=probe)
        midway = max(2, probe.checkpoints // 2)

        guard = ExecutionGuard(
            on_exhaustion="degrade",
            faults=FaultPlan(cancel_at_checkpoint=midway))
        partial = lyric.query(db, PAPER_QUERY, guard=guard)
        assert partial.is_partial
        assert len(partial) < len(full)
        assert any("partial result" in w for w in partial.warnings)
        assert "cancel" in partial.warnings[0]

    def test_degrade_warning_carries_budget(self, db):
        # Both runs cold: a warm cache would leave the faulted run
        # fewer pivots than the probe counted.
        probe = ExecutionGuard()
        lyric.query(db, PAPER_QUERY, guard=probe,
                    ctx=QueryContext(cache=None))
        guard = ExecutionGuard(
            on_exhaustion="degrade",
            faults=FaultPlan(exhaust_budget="pivots",
                             exhaust_after=probe.pivots // 2))
        partial = lyric.query(db, PAPER_QUERY, guard=guard,
                              ctx=QueryContext(cache=None))
        assert partial.is_partial
        assert "budget=pivots" in partial.warnings[0]

    def test_pretty_prints_warning(self, db):
        guard = ExecutionGuard(
            on_exhaustion="degrade",
            faults=FaultPlan(cancel_at_checkpoint=2))
        partial = lyric.query(db, PAPER_QUERY, guard=guard)
        assert "warning:" in partial.pretty()


class TestEngineDegrade:
    def test_stats_capture_spend(self, db):
        translated = translate(db, PAPER_QUERY)
        catalog = flatten(db)
        stats = engine.ExecutionStats()
        guard = ExecutionGuard()
        relation = engine.execute(translated.plan, catalog,
                                  stats=stats, guard=guard)
        assert len(relation) > 0
        assert stats.pivots > 0
        assert stats.simplex_calls >= 1
        assert stats.checkpoints >= 1
        assert stats.exhausted is None
        assert stats.warnings == []

    def test_degrade_returns_empty_with_warning(self, db):
        translated = translate(db, PAPER_QUERY)
        catalog = flatten(db)
        stats = engine.ExecutionStats()
        guard = ExecutionGuard(
            on_exhaustion="degrade",
            faults=FaultPlan(exhaust_budget="pivots", exhaust_after=1))
        relation = engine.execute(translated.plan, catalog,
                                  stats=stats, guard=guard)
        assert len(relation) == 0
        assert relation.columns == translated.plan.columns
        assert stats.exhausted == "pivots"
        assert any("partial result" in w for w in stats.warnings)

    def test_fail_policy_raises(self, db):
        translated = translate(db, PAPER_QUERY)
        catalog = flatten(db)
        guard = ExecutionGuard(
            faults=FaultPlan(exhaust_budget="pivots", exhaust_after=1))
        with pytest.raises(errors.PivotBudgetExceeded):
            engine.execute(translated.plan, catalog, guard=guard)

    def test_query_translated_propagates_warning(self, db):
        guard = ExecutionGuard(
            on_exhaustion="degrade",
            faults=FaultPlan(exhaust_budget="pivots", exhaust_after=1))
        result = lyric.query_translated(db, PAPER_QUERY, guard=guard)
        assert result.is_partial
        assert any("partial result" in w for w in result.warnings)


class TestZeroOverheadDefault:
    def test_unguarded_query_identical(self, db):
        baseline = lyric.query(db, PAPER_QUERY)
        permissive = lyric.query(
            db, PAPER_QUERY,
            guard=ExecutionGuard(max_pivots=10 ** 9,
                                 max_branches=10 ** 9,
                                 max_disjuncts=10 ** 9,
                                 max_canonical=10 ** 9,
                                 deadline=3600))
        assert baseline.rows == permissive.rows
        assert not baseline.is_partial
        assert not permissive.is_partial
