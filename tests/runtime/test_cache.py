"""Tests for the constraint-level memoization layer."""

import pytest

from repro import errors
from repro.constraints.atoms import Ge, Le
from repro.constraints.canonical import (
    canonical_conjunctive,
    canonical_key,
    seed_canonical,
)
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.implication import atom_redundant_in
from repro.constraints.terms import Variable, variables
from repro.runtime import (
    ExecutionGuard,
    FaultPlan,
    QueryContext,
    current_context,
)
from repro.runtime.cache import ConstraintCache, get_global_cache

x, y = variables("x y")


def interval(lo, hi):
    return ConjunctiveConstraint.of(Ge(x, lo), Le(x, hi))


class TestLRU:
    def test_hit_returns_stored_value(self):
        cache = ConstraintCache(maxsize=4)
        cache.store("k", "v", cost=3)
        hit, value = cache.lookup("k")
        assert hit and value == "v"
        assert cache.hits == 1
        assert cache.simplex_saved == 3

    def test_miss_counted(self):
        cache = ConstraintCache(maxsize=4)
        hit, value = cache.lookup("absent")
        assert not hit and value is None
        assert cache.misses == 1

    def test_eviction_is_lru(self):
        cache = ConstraintCache(maxsize=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")          # refresh a; b is now oldest
        cache.store("c", 3)
        assert cache.evictions == 1
        assert cache.lookup("b") == (False, None)
        assert cache.lookup("a") == (True, 1)

    def test_size_bounded(self):
        cache = ConstraintCache(maxsize=8)
        for i in range(100):
            cache.store(i, i)
        assert len(cache) == 8
        assert cache.evictions == 92

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            ConstraintCache(maxsize=0)

    def test_clear_resets_counters(self):
        cache = ConstraintCache()
        cache.store("k", 1)
        cache.lookup("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.counters() == {
            "hits": 0, "misses": 0, "evictions": 0,
            "simplex_saved": 0, "entries": 0}


class TestContextSelection:
    def test_global_by_default(self):
        assert current_context().cache is get_global_cache()

    def test_caching_none_disables(self):
        with QueryContext(cache=None).activate():
            assert current_context().cache is None
        assert current_context().cache is get_global_cache()

    def test_scoped_cache_wins(self):
        scoped = ConstraintCache(maxsize=16)
        with QueryContext(cache=scoped).activate():
            assert current_context().cache is scoped

    def test_fault_plan_bypasses_cache(self):
        """It does not: a fault plan keeps the cache and the
        prefilter, and its run reads and fills the cache like any
        other."""
        cache = ConstraintCache()
        guard = ExecutionGuard(faults=FaultPlan())
        with QueryContext(guard=guard, cache=cache).activate():
            assert current_context().cache is cache
            assert current_context().prefilter
            interval(0, 10).is_satisfiable()
            interval(0, 10).is_satisfiable()
        assert cache.misses == 1 and cache.hits == 1

    def test_prefilter_context(self):
        assert current_context().prefilter
        with QueryContext(prefilter=False).activate():
            assert not current_context().prefilter
        assert current_context().prefilter


class TestMemoizedSemantics:
    def test_computes_once(self):
        calls = []
        with QueryContext(cache=ConstraintCache()).activate() as ctx:
            for _ in range(3):
                value = ctx.memoized("k", lambda: calls.append(1) or 42)
            assert value == 42
        assert len(calls) == 1

    def test_disabled_computes_every_time(self):
        calls = []
        with QueryContext(cache=None).activate() as ctx:
            for _ in range(3):
                ctx.memoized("k", lambda: calls.append(1) or 42)
        assert len(calls) == 3

    def test_simplex_cost_recorded(self):
        cache = ConstraintCache()
        conj = interval(0, 10)
        with QueryContext(cache=cache).activate() as ctx:
            conj.is_satisfiable()
            before = ctx.stats.simplex_solves
            assert before >= 1
            assert ConjunctiveConstraint(conj.atoms).is_satisfiable()
        assert ctx.stats.simplex_solves == before  # second check: no LP
        assert cache.hits == 1
        assert cache.simplex_saved >= 1

    def test_exceptions_not_cached(self):
        cache = ConstraintCache()
        attempts = []

        def compute():
            attempts.append(1)
            if len(attempts) == 1:
                raise errors.PivotBudgetExceeded(
                    "boom", budget="pivots", limit=1, spent=2)
            return "ok"

        with QueryContext(cache=cache).activate() as ctx:
            with pytest.raises(errors.PivotBudgetExceeded):
                ctx.memoized("k", compute)
            assert ctx.memoized("k", compute) == "ok"
        assert len(attempts) == 2


class TestGuardInteraction:
    def test_hit_spends_no_budget(self):
        conj = interval(0, 10)
        conj.is_satisfiable()    # warm the global cache
        guard = ExecutionGuard(max_pivots=1, max_branches=1)
        with QueryContext(guard=guard).activate():
            assert ConjunctiveConstraint(conj.atoms).is_satisfiable()
        assert guard.pivots == 0
        assert guard.branches == 0

    def test_hit_still_observes_cancellation(self):
        conj = interval(0, 10)
        conj.is_satisfiable()
        guard = ExecutionGuard()
        guard.cancel()
        with QueryContext(guard=guard).activate():
            with pytest.raises(errors.QueryCancelled):
                ConjunctiveConstraint(conj.atoms).is_satisfiable()
        assert guard.exhausted == "cancellation"

    def test_fault_injection_unaffected_by_warm_cache(self):
        """A warm cache does move the fault: on a cold cache the
        injected failure fires and the failed run caches nothing; a
        warm one answers without the simplex call the plan fails, so
        the hit neither raises nor spends budget.  A test that counts
        ticks therefore starts from a cold cache."""
        conj = interval(0, 10)
        cache = ConstraintCache()
        guard = ExecutionGuard(faults=FaultPlan(fail_simplex_at=1))
        with QueryContext(guard=guard, cache=cache).activate():
            with pytest.raises(errors.InjectedFaultError):
                ConjunctiveConstraint(conj.atoms).is_satisfiable()
        assert len(cache) == 0
        with QueryContext(cache=cache).activate():
            assert conj.is_satisfiable()    # warm
        guard = ExecutionGuard(faults=FaultPlan(fail_simplex_at=1))
        with QueryContext(guard=guard, cache=cache).activate():
            assert ConjunctiveConstraint(conj.atoms).is_satisfiable()
        assert guard.simplex_calls == 0


class TestCachedDecisions:
    def test_satisfiability_cached_across_equal_instances(self):
        cache = ConstraintCache()
        with QueryContext(cache=cache).activate():
            assert interval(0, 10).is_satisfiable()
            assert interval(0, 10).is_satisfiable()
        assert cache.hits == 1

    def test_canonical_conjunctive_cached(self):
        cache = ConstraintCache()
        conj = ConjunctiveConstraint.of(Le(x, 1), Le(x, 2), Le(y, 3))
        with QueryContext(cache=cache).activate():
            first = canonical_conjunctive(conj)
            second = canonical_conjunctive(
                ConjunctiveConstraint(conj.atoms))
        assert first == second
        assert Le(x, 2) not in first.atoms
        assert cache.hits >= 1

    def test_atom_redundant_cached(self):
        cache = ConstraintCache()
        context = ConjunctiveConstraint.of(Le(x, 1))
        with QueryContext(cache=cache).activate():
            assert atom_redundant_in(Le(x, 2), context)
            assert atom_redundant_in(Le(x, 2), context)
        assert cache.hits >= 1

    def test_canonical_key_cached_and_alpha_invariant(self):
        cache = ConstraintCache()
        a, b = Variable("a"), Variable("b")
        with QueryContext(cache=cache).activate():
            key1 = canonical_key(interval(0, 10), (x, y))
            key2 = canonical_key(interval(0, 10), (x, y))
            renamed = ConjunctiveConstraint.of(Ge(a, 0), Le(a, 10))
            key3 = canonical_key(renamed, (a, b))
        assert key1 == key2 == key3
        assert cache.hits >= 1

    def test_repeat_seed_compares_the_key_once(self, monkeypatch):
        """Re-seeding a canonical form the memo already holds compares
        the new conjunction with the held key once (a hit, likewise)."""
        cache = ConstraintCache()
        with QueryContext(cache=cache).activate():
            seed_canonical(interval(0, 10))
            calls = []
            compare = ConjunctiveConstraint.__eq__
            monkeypatch.setattr(
                ConjunctiveConstraint, "__eq__",
                lambda self, other: calls.append(1) or compare(self, other))
            seed_canonical(interval(0, 10))
            assert len(calls) == 1
            assert canonical_conjunctive(interval(0, 10)) == interval(0, 10)
            assert len(calls) == 3      # the lookup, then the result check
        assert len(cache) == 1 and cache.hits == 1

    def test_cached_answer_matches_uncached(self):
        conj = interval(0, 10)
        bad = ConjunctiveConstraint.of(Ge(x, 5), Le(x, 1))
        with QueryContext(cache=None, prefilter=False).activate():
            plain_good = conj.is_satisfiable()
            plain_bad = bad.is_satisfiable()
        with QueryContext(cache=ConstraintCache()).activate():
            assert ConjunctiveConstraint(
                conj.atoms).is_satisfiable() == plain_good
            assert ConjunctiveConstraint(
                bad.atoms).is_satisfiable() == plain_bad
