"""The compiled-plan cache: LRU protocol, keying, invalidation, and
its integration with the staged pipeline.

The unit half drives :class:`repro.runtime.plancache.PlanCache`
directly with toy keys; the integration half compiles real queries and
asserts the acceptance criterion — a hit replays **zero** translate /
optimize phases.
"""

import pytest

from repro import lyric
from repro.core.pipeline import Pipeline
from repro.model.database import Database
from repro.model.office import build_office_database, build_office_schema
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.faults import FaultPlan
from repro.runtime.guard import ExecutionGuard
from repro.runtime.plancache import (
    PlanCache,
    clear_global_plan_cache,
    get_global_plan_cache,
    plan_key,
    plan_options_key,
)

QUERY = """
    SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
    FROM Office_Object CO
    WHERE CO.extent[E] and CO.translation[D]
"""


@pytest.fixture(autouse=True)
def _cold_plan_cache():
    clear_global_plan_cache()
    yield
    clear_global_plan_cache()


@pytest.fixture
def office():
    db, _ = build_office_database()
    return db


class TestLruProtocol:
    def test_miss_then_hit(self):
        cache = PlanCache(maxsize=4)
        key = ("q", b"f", ())
        hit, value, saved = cache.lookup(key)
        assert (hit, value) == (False, None)
        cache.store(key, "plan", 0.25)
        hit, value, saved = cache.lookup(key)
        assert (hit, value, saved) == (True, "plan", 0.25)
        assert cache.counters()["hits"] == 1
        assert cache.counters()["misses"] == 1
        assert cache.compile_saved == 0.25

    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        cache.store("a", 1, 0.0)
        cache.store("b", 2, 0.0)
        cache.lookup("a")  # refresh: "b" is now least recent
        cache.store("c", 3, 0.0)
        assert cache.lookup("b")[0] is False
        assert cache.lookup("a")[0] is True
        assert cache.lookup("c")[0] is True
        assert cache.evictions == 1

    def test_restore_does_not_grow(self):
        cache = PlanCache(maxsize=2)
        cache.store("a", 1, 0.0)
        cache.store("a", 1, 0.0)
        assert len(cache) == 1
        assert cache.evictions == 0

    def test_nonpositive_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_clear_resets_counters(self):
        cache = PlanCache()
        cache.store("a", 1, 0.5)
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.counters() == {
            "hits": 0, "misses": 0, "evictions": 0,
            "invalidations": 0, "compile_saved": 0.0, "entries": 0}


class TestSchemaInvalidation:
    def test_mutation_evicts_stale_entries(self):
        cache = PlanCache()
        schema = build_office_schema()
        fp1 = cache.note_schema(schema)
        cache.store(("q", fp1, ()), "plan", 0.0)
        schema.define("Shelf", parents=["Office_Object"])
        fp2 = cache.note_schema(schema)
        assert fp1 != fp2
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_unrelated_schema_entries_survive(self):
        cache = PlanCache()
        mutating, stable = build_office_schema(), build_office_schema()
        fp_mut = cache.note_schema(mutating)
        fp_stable = cache.note_schema(stable)
        assert fp_mut == fp_stable  # equal content, equal fingerprint
        cache.store(("q", fp_mut, ()), "plan", 0.0)
        mutating.define("Shelf", parents=["Office_Object"])
        cache.note_schema(mutating)
        # The entry was keyed by the shared fingerprint; the mutating
        # schema's DDL rightfully evicts it (it was compiled against
        # that fingerprint) but the stable schema just re-misses.
        assert cache.invalidations == 1

    def test_equal_content_schemas_share_fingerprint(self):
        cache = PlanCache()
        assert cache.note_schema(build_office_schema()) \
            == cache.note_schema(build_office_schema())


class TestOptionsKeying:
    def test_plan_options_partition_the_cache(self):
        base = QueryContext()
        assert plan_options_key(base) \
            != plan_options_key(base.derive(indexing=False))
        assert plan_options_key(base) \
            != plan_options_key(base.derive(use_optimizer=False))
        assert plan_options_key(base) \
            != plan_options_key(base.derive(shards=4))

    def test_execution_only_options_do_not_partition(self):
        base = QueryContext()
        assert plan_options_key(base) \
            == plan_options_key(base.derive(prefilter=not base.prefilter))
        assert plan_options_key(base) \
            == plan_options_key(base.derive(cache=None))
        # The batch filter reads the float-kernel switch from the
        # executing context, so one compiled plan serves the kernel on
        # or off.
        assert len(plan_options_key(base)) == 3
        assert plan_options_key(base) \
            == plan_options_key(base.derive(numeric=not base.numeric))

    def test_plan_key_carries_fingerprint(self):
        ctx = QueryContext()
        key = plan_key("ast", b"fp", ctx)
        assert key == ("ast", b"fp", plan_options_key(ctx))


class TestPipelineIntegration:
    def test_hit_skips_all_compile_phases(self, office):
        ctx1 = QueryContext(stats=ExecutionStats())
        Pipeline(office, ctx1).run(QUERY)
        assert ctx1.stats.plan_cache_misses == 1
        ctx2 = QueryContext(stats=ExecutionStats())
        Pipeline(office, ctx2).run(QUERY)
        names = [r.name for r in ctx2.stats.phases]
        # The acceptance criterion: zero translate/optimize records.
        assert names == ["plan-cache", "bind", "execute"]
        assert ctx2.stats.plan_cache_hits == 1
        assert ctx2.stats.plan_compile_saved > 0.0

    def test_hit_and_miss_results_identical(self, office):
        miss = Pipeline(office).run(QUERY)
        hit = Pipeline(office).run(QUERY)
        assert [r.values for r in miss] == [r.values for r in hit]
        assert get_global_plan_cache().hits == 1

    def test_whitespace_variants_share_an_entry(self, office):
        Pipeline(office).run(QUERY)
        Pipeline(office).run("  " + QUERY.replace("\n", " \n "))
        cache = get_global_plan_cache()
        assert (cache.hits, cache.misses) == (1, 1)

    def test_options_get_separate_entries(self, office):
        Pipeline(office).run(QUERY)
        ctx = QueryContext(stats=ExecutionStats(), indexing=False)
        Pipeline(office, ctx).run(QUERY)
        assert ctx.stats.plan_cache_misses == 1
        assert get_global_plan_cache().hits == 0

    def test_schema_mutation_invalidates(self, office):
        Pipeline(office).run("SELECT X FROM Desk X")
        office.schema.define("Shelf", parents=["Office_Object"])
        ctx = QueryContext(stats=ExecutionStats())
        Pipeline(office, ctx).run("SELECT X FROM Desk X")
        assert ctx.stats.plan_cache_invalidations == 1
        assert ctx.stats.plan_cache_misses == 1
        assert ctx.stats.plan_cache_hits == 0

    def test_equal_content_databases_share_plans(self):
        db1, _ = build_office_database()
        db2, _ = build_office_database()
        Pipeline(db1).run("SELECT X FROM Desk X")
        ctx = QueryContext(stats=ExecutionStats())
        result = Pipeline(db2, ctx).run("SELECT X FROM Desk X")
        assert ctx.stats.plan_cache_hits == 1
        assert len(result) == 1  # rows come from db2's bind, not db1's

    def test_disabled_cache_always_compiles(self, office):
        ctx = QueryContext(stats=ExecutionStats(), plan_cache=None)
        pipe = Pipeline(office, ctx)
        pipe.run(QUERY)
        pipe.run(QUERY)
        assert ctx.stats.plan_cache_hits == 0
        assert ctx.stats.plan_cache_misses == 0
        assert len(get_global_plan_cache()) == 0

    def test_fault_plan_bypasses_cache(self, office):
        """It does not: a faulted run hits the plan cache like any
        other, and a cold compile is what ``plan_cache=None`` asks
        for."""
        Pipeline(office).run(QUERY)
        guard = ExecutionGuard(faults=FaultPlan())
        ctx = QueryContext(stats=ExecutionStats(), guard=guard)
        assert ctx.plan_cache is get_global_plan_cache()
        Pipeline(office, ctx).run(QUERY)
        assert ctx.stats.plan_cache_hits == 1
        assert "translate" not in [r.name for r in ctx.stats.phases]
        cold = ctx.derive(stats=ExecutionStats(), plan_cache=None)
        Pipeline(office, cold).run(QUERY)
        assert cold.stats.plan_cache_hits == 0
        assert "translate" in [r.name for r in cold.stats.phases]

    def test_private_cache_isolated_from_global(self, office):
        private = PlanCache(maxsize=8)
        ctx = QueryContext(stats=ExecutionStats(), plan_cache=private)
        Pipeline(office, ctx).run(QUERY)
        assert len(private) == 1
        assert len(get_global_plan_cache()) == 0


class TestPreparedQueryBinding:
    def test_store_restored_equivalent_database_accepted(self):
        db, _ = build_office_database()
        prepared = lyric.prepare(db, "SELECT X FROM Desk X")
        restored = Database(build_office_schema())
        assert len(prepared.run(restored)) == 0

    def test_store_round_trip_database_accepted(self, tmp_path):
        from repro.storage import Store

        db, _ = build_office_database()
        prepared = lyric.prepare(db, "SELECT X FROM Desk X")
        expected = len(prepared.run(db))
        path = str(tmp_path / "office.store")
        Store.create(path, db).close()
        with Store.open(path) as store:
            # The restored schema is content-equal, so the statement
            # (fingerprint-bound, not identity-bound) runs against it.
            assert len(prepared.run(store.db)) == expected

    def test_repeat_runs_reuse_compiled_plan(self):
        db, _ = build_office_database()
        prepared = lyric.prepare(db, "SELECT X FROM Desk X")
        clear_global_plan_cache()
        ctx1 = QueryContext(stats=ExecutionStats())
        prepared.run(db, ctx=ctx1)
        ctx2 = QueryContext(stats=ExecutionStats())
        prepared.run(db, ctx=ctx2)
        # The plan cache is the statement's only plan memo: the second
        # run is a hit there ...
        assert (ctx2.stats.plan_cache_hits,
                ctx2.stats.plan_cache_misses) == (1, 0)
        assert "translate" not in [r.name for r in ctx2.stats.phases]
        # ... and with the cache off every run compiles.
        for _ in range(2):
            uncached = QueryContext(stats=ExecutionStats(),
                                    plan_cache=None)
            prepared.run(db, ctx=uncached)
            assert "translate" in [r.name
                                   for r in uncached.stats.phases]
