"""QueryContext: the one object owning per-query execution state."""

import dataclasses

import pytest

from repro.constraints.atoms import Ge, Le
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.terms import variables
from repro.errors import ResourceExhausted
from repro.runtime import context as context_mod
from repro.runtime.cache import ConstraintCache, get_global_cache
from repro.runtime.context import (
    ExecutionStats,
    PhaseRecord,
    QueryContext,
    current_context,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.guard import ExecutionGuard
from repro.runtime.plancache import get_global_plan_cache

x, y = variables("x y")


def interval(lo, hi):
    return ConjunctiveConstraint.of(Ge(x, lo), Le(x, hi))


class TestConstruction:
    def test_defaults(self):
        ctx = QueryContext()
        assert ctx.guard is None
        assert ctx.cache is get_global_cache()
        assert ctx.prefilter and ctx.indexing
        assert ctx.use_optimizer
        assert isinstance(ctx.stats, ExecutionStats)

    def test_explicit_none_cache_disables(self):
        assert QueryContext(cache=None).cache is None

    def test_on_exhaustion_comes_from_guard(self):
        assert QueryContext().on_exhaustion == "fail"
        guard = ExecutionGuard(on_exhaustion="degrade")
        assert QueryContext(guard=guard).on_exhaustion == "degrade"

    def test_faults_owned_through_guard(self):
        plan = FaultPlan(exhaust_budget="pivots", exhaust_after=1)
        guard = ExecutionGuard(faults=plan)
        assert QueryContext(guard=guard).faults is plan
        assert QueryContext().faults is None


class TestDerive:
    def test_derive_shares_stats(self):
        parent = QueryContext()
        child = parent.derive(shards=3)
        assert child.stats is parent.stats
        assert child.shards == 3
        assert parent.shards == 0

    def test_derive_honours_explicit_none(self):
        parent = QueryContext(guard=ExecutionGuard())
        assert parent.derive(guard=None).guard is None
        assert parent.derive(cache=None).cache is None

    def test_derive_rejects_unknown_attributes(self):
        with pytest.raises(TypeError):
            QueryContext().derive(nonsense=1)

    def test_derived_stats_override(self):
        fresh = ExecutionStats()
        child = QueryContext().derive(stats=fresh)
        assert child.stats is fresh


class TestActivation:
    def test_activate_makes_context_ambient(self):
        ctx = QueryContext(guard=ExecutionGuard(max_pivots=5))
        assert current_context() is not ctx
        with ctx.activate():
            assert current_context() is ctx
            assert current_context().guard is ctx.guard
        assert current_context() is not ctx
        assert current_context().guard is None

    def test_activations_nest(self):
        outer, inner = QueryContext(), QueryContext()
        with outer.activate():
            with inner.activate():
                assert current_context() is inner
            assert current_context() is outer

    def test_activate_starts_guard_clock(self):
        guard = ExecutionGuard(deadline=60.0)
        with QueryContext(guard=guard).activate():
            assert guard.elapsed() >= 0.0

    def test_resolve_prefers_explicit(self):
        explicit = QueryContext()
        assert context_mod.resolve(explicit) is explicit
        assert context_mod.resolve(None) is current_context()


class TestFaultGating:
    """A fault plan injects faults and changes no option: the context
    keeps the cache, plan cache, prefilter and kernel it was given."""

    def test_faults_disable_cache_and_prefilter(self):
        """They do not: the plan leaves every option as set."""
        guard = ExecutionGuard(faults=FaultPlan())
        ctx = QueryContext(guard=guard)
        assert ctx.cache is get_global_cache()
        assert ctx.plan_cache is get_global_plan_cache()
        assert ctx.prefilter
        assert ctx.derive(numeric=True).numeric

    def test_no_faults_keeps_both(self):
        ctx = QueryContext(guard=ExecutionGuard())
        assert ctx.cache is get_global_cache()
        assert ctx.prefilter


class TestMemoized:
    def test_hit_and_miss_book_into_context_stats(self):
        ctx = QueryContext(cache=ConstraintCache(maxsize=8))
        calls = []
        ctx.memoized("k", lambda: calls.append(1) or "v")
        assert ctx.memoized("k", lambda: calls.append(1) or "v") == "v"
        assert len(calls) == 1
        assert ctx.stats.cache_misses == 1
        assert ctx.stats.cache_hits == 1

    def test_hit_checkpoints_guard(self):
        guard = ExecutionGuard()
        ctx = QueryContext(guard=guard,
                           cache=ConstraintCache(maxsize=8))
        ctx.memoized("k", lambda: 1)
        guard.cancel()
        with pytest.raises(ResourceExhausted) as info:
            ctx.memoized("k", lambda: 1)
        assert info.value.budget == "cancellation"

    def test_disabled_cache_always_computes(self):
        ctx = QueryContext(cache=None)
        calls = []
        ctx.memoized("k", lambda: calls.append(1) or "v")
        ctx.memoized("k", lambda: calls.append(1) or "v")
        assert len(calls) == 2
        assert ctx.stats.cache_hits == 0


def _synthetic_value(stats, f):
    """A distinct non-default value for any stats field, by type."""
    current = getattr(stats, f.name)
    if isinstance(current, bool):
        return True
    if isinstance(current, float):
        return 1.5
    if isinstance(current, int):
        return 7
    if isinstance(current, list):
        if f.name == "phases":
            return [PhaseRecord("synthetic", 0.1)]
        return ["synthetic"]
    return "synthetic"


class TestStatsMergeRegression:
    """Satellite guarantee: EVERY ExecutionStats counter — including
    ones added after this test was written — survives a worker
    round-trip (snapshot in the child, merge in the parent).

    The test iterates ``dataclasses.fields`` so a newly added counter
    is covered automatically; a field may only opt out by declaring
    ``merge: skip`` in its metadata (engine-assigned summary fields).
    """

    def test_every_field_survives_snapshot_merge(self):
        worker = ExecutionStats()
        expected = {}
        for f in dataclasses.fields(worker):
            how = f.metadata.get("merge", "sum")
            if how == "skip":
                continue
            value = _synthetic_value(worker, f)
            setattr(worker, f.name, value)
            expected[f.name] = value

        parent = ExecutionStats()
        parent.merge(worker.snapshot())

        # The catalog account is among them: a pool worker's rebuild,
        # and its reason, must reach the request's account.
        assert {"catalog_hits", "catalog_rebuilds",
                "catalog_rebuild_reason"} <= set(expected)
        for name, value in expected.items():
            merged = getattr(parent, name)
            assert merged == value, (
                f"counter {name!r} was lost in the worker round-trip: "
                f"sent {value!r}, parent has {merged!r}")

    def test_catalog_account_sums_and_keeps_the_first_reason(self):
        a, b, c = ExecutionStats(), ExecutionStats(), ExecutionStats()
        a.catalog_hits = 2
        b.catalog_hits, b.catalog_rebuilds = 3, 1
        b.catalog_rebuild_reason = "db_mutated"
        c.catalog_rebuilds, c.catalog_rebuild_reason = 1, "shards_changed"
        a.merge(b.snapshot())
        a.merge(c)
        assert (a.catalog_hits, a.catalog_rebuilds,
                a.catalog_rebuild_reason) == (5, 2, "db_mutated")

    def test_sum_fields_accumulate(self):
        a, b = ExecutionStats(), ExecutionStats()
        a.pivots = 3
        b.pivots = 4
        a.merge(b)
        assert a.pivots == 7

    def test_max_fields_take_peak(self):
        a, b = ExecutionStats(), ExecutionStats()
        a.peak_disjuncts = 4
        b.peak_disjuncts = 2
        a.merge(b)
        assert a.peak_disjuncts == 4

    def test_first_fields_keep_existing(self):
        a, b = ExecutionStats(), ExecutionStats()
        a.exhausted = "pivots"
        b.exhausted = "branches"
        a.merge(b)
        assert a.exhausted == "pivots"

    def test_skip_fields_untouched(self):
        a, b = ExecutionStats(), ExecutionStats()
        a.output_rows = 10
        b.output_rows = 99
        b.optimized = True
        a.merge(b)
        assert a.output_rows == 10
        assert a.optimized is False

    def test_snapshot_is_plain_data(self):
        import pickle
        stats = ExecutionStats()
        stats.phases.append(PhaseRecord("parse", 0.01))
        snap = stats.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_reset_zeroes_every_field(self):
        stats = ExecutionStats()
        for f in dataclasses.fields(stats):
            setattr(stats, f.name, _synthetic_value(stats, f))
        stats.reset()
        fresh = ExecutionStats()
        for f in dataclasses.fields(stats):
            assert getattr(stats, f.name) == getattr(fresh, f.name)
