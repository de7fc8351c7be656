"""Parallel ≡ serial from LyriC text.

A translated WHERE clause is a closure over the constraint engine, so
text queries can only take the fork-inherit transport: under
``parallelism=2`` the benchmark's join queries and an office
entailment query must run a real parallel region, never touch the
persistent pool, and return the serial run's bytes.  A filter under
``PARTITION_THRESHOLD`` rows stays serial, with the same bytes.  The
worker count is no part of the plan: the parallel run executes the
very plan the serial run compiled, as a plan-cache hit.
"""

import pytest

from bench import text
from bench.common import rows_bytes
from repro import lyric
from repro.runtime import parallel
from repro.runtime.context import QueryContext
from repro.workloads import office

pytestmark = pytest.mark.skipif(
    not parallel._fork_available(),
    reason="parallel regions need a fork platform")


def _sparse():
    inst = text.build_sparse(3, {"n": 16, "overlaps": 3, "windows": 1})
    return (inst.db, text.SPARSE_JOIN_QUERY, None,
            {"indexing": False, "numeric": False}, True)


def _dense():
    inst = text.build_dense(3, {"n": 12, "extra": 4, "atoms": 5,
                                "drawn": 30})
    return (inst.db, text.DENSE_JOIN_QUERY, text.distinct_k(0),
            {"numeric": False}, True)


def _office():
    # The filter reads only the desks' rows (attr:drawer_center@Desk),
    # half of the 48 objects: under PARTITION_THRESHOLD, no region.
    return (office.generate(48, seed=3).db,
            office.RED_LEFT_DRAWER_QUERY, None, {}, False)


def _office_160():
    return (office.generate(160, seed=3).db,
            office.RED_LEFT_DRAWER_QUERY, None, {}, True)


@pytest.mark.parametrize("case", [_sparse, _dense, _office, _office_160])
def test_parallel_region_returns_the_serial_bytes(case):
    db, query, params, options, region = case()
    serial = lyric.query_translated(
        db, query, params=params, ctx=QueryContext(**options))
    ctx = QueryContext(parallelism=2, **options)
    fanned = lyric.query_translated(db, query, params=params, ctx=ctx)
    assert (ctx.stats.plan_cache_hits, ctx.stats.plan_cache_misses) \
        == (1, 0)
    if ctx.stats.parallel_fallbacks:
        pytest.skip("process pool unavailable")
    assert len(serial) > 0
    assert rows_bytes(fanned) == rows_bytes(serial)
    assert (ctx.stats.parallel_runs >= 1) == region
    assert ctx.stats.pool_dispatches == 0
