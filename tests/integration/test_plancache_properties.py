"""Property suite for the compiled-plan cache (satellite of E20).

The invariant under test: serving a cached plan is *observationally
invisible*.  For random generated databases, random queries (with and
without parameter slots), random bindings, and every plan-relevant
option combination, the rows produced by a cache hit are byte-identical
to a fresh compile — including immediately after schema mutation, when
a stale plan must not be served.
"""

from hypothesis import given, settings, strategies as st

from repro import lyric
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.plancache import PlanCache
from repro.workloads import office

#: Queries mixing plain, CST-heavy, and parameterized shapes.  Each
#: entry is (text, binding names); bound values come from the strategy.
QUERIES = [
    ("SELECT X FROM Office_Object X WHERE X.color = 'red'", ()),
    (office.PLACED_EXTENT_QUERY, ()),
    ("SELECT X FROM Office_Object X WHERE X.color = $col", ("col",)),
    ("""
        SELECT CO, ((u,v) | E and D and x = $px and y = $py)
        FROM Office_Object CO
        WHERE CO.extent[E] and CO.translation[D]
     """, ("px", "py")),
]

colors = st.sampled_from(["red", "blue", "grey", "chartreuse"])
coords = st.integers(min_value=-4, max_value=10)


def bindings_for(names, color, px, py):
    pool = {"col": color, "px": px, "py": py}
    return {name: pool[name] for name in names} or None


def rows_bytes(result):
    """A canonical byte serialization of a result set — the comparison
    the acceptance criterion is stated in."""
    return "\n".join(
        sorted(f"{r.oid!r}|{r.values!r}" for r in result)
    ).encode()


def run_once(db, text, params, cache, **options):
    ctx = QueryContext(stats=ExecutionStats(), plan_cache=cache,
                       **options)
    result = lyric.query_translated(db, text, ctx=ctx, params=params)
    return rows_bytes(result), ctx.stats


class TestCachedEqualsFresh:
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=len(QUERIES) - 1),
           colors, coords, coords,
           st.booleans(), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_hit_is_byte_identical_to_fresh_compile(
            self, n, seed, query_index, color, px, py,
            numeric, indexing):
        db = office.generate(n, seed=seed).db
        text, names = QUERIES[query_index]
        params = bindings_for(names, color, px, py)
        options = dict(numeric=numeric, indexing=indexing)

        fresh, _ = run_once(db, text, params, None, **options)
        cache = PlanCache()
        first, stats1 = run_once(db, text, params, cache, **options)
        second, stats2 = run_once(db, text, params, cache, **options)

        assert stats1.plan_cache_misses == 1
        assert stats2.plan_cache_hits == 1
        assert first == fresh
        assert second == fresh

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=3),
           colors, colors)
    @settings(max_examples=15, deadline=None)
    def test_rebinding_reuses_the_plan_correctly(
            self, n, seed, color_a, color_b):
        db = office.generate(n, seed=seed).db
        text, names = QUERIES[2]
        cache = PlanCache()
        for color in (color_a, color_b, color_a):
            params = bindings_for(names, color, 0, 0)
            cached, _ = run_once(db, text, params, cache)
            fresh, _ = run_once(db, text, params, None)
            assert cached == fresh
        assert cache.misses == 1  # one plan served every binding

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=len(QUERIES) - 1),
           colors)
    @settings(max_examples=15, deadline=None)
    def test_schema_mutation_never_serves_stale_plan(
            self, n, seed, query_index, color):
        db = office.generate(n, seed=seed).db
        text, names = QUERIES[query_index]
        params = bindings_for(names, color, 6, 4)
        cache = PlanCache()
        run_once(db, text, params, cache)  # warm the cache

        db.schema.define(f"Annex_{n}_{seed}",
                         parents=["Office_Object"])
        cached, stats = run_once(db, text, params, cache)
        fresh, _ = run_once(db, text, params, None)

        assert stats.plan_cache_hits == 0  # the warm entry is dead
        assert stats.plan_cache_invalidations >= 1
        assert cached == fresh

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_option_combinations_partition_entries(self, n, seed):
        db = office.generate(n, seed=seed).db
        text, _ = QUERIES[1]
        cache = PlanCache()
        fresh, _ = run_once(db, text, None, None)
        # ``indexing`` steers the rewrites and partitions the cache;
        # ``numeric`` is read at execution only, so each numeric-off
        # run is a hit of the plan its numeric-on twin compiled, with
        # byte-identical rows.
        combos = [dict(numeric=num, indexing=idx)
                  for num in (True, False) for idx in (False, True)]
        for options in combos:
            cached, _ = run_once(db, text, None, cache, **options)
            assert cached == fresh
        assert cache.misses == 2
        assert cache.hits == 2
