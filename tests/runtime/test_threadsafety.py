"""Thread-safety of the process-wide singletons concurrent sessions
share: the constraint cache, the compiled-plan cache, the worker
pool accessor, and the fork-inherit payload of partitioned filters.

Before the serving layer these objects were only ever touched from one
thread; the query server executes requests on a thread pool, so every
one of them is hammered from many threads here.  The assertions are
about *structural* integrity (no lost entries past the bound, no
corrupted ``OrderedDict``, exactly one surviving pool) — individual
counter interleavings are allowed to race benignly.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.model.office import build_office_database
from repro.runtime import parallel
from repro.runtime.cache import ConstraintCache
from repro.runtime.context import QueryContext
from repro.runtime.plancache import PlanCache
from repro.core.parser import parse_query

THREADS = 8
OPS = 400


def _hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on many threads, re-raising the
    first worker exception (a corrupted dict raises KeyError/RuntimeError
    mid-operation)."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(threads)

    def run(i):
        try:
            barrier.wait()
            worker(i)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,))
            for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]


class TestConstraintCacheThreadSafety:
    def test_concurrent_lookup_store_evict(self):
        cache = ConstraintCache(maxsize=64)

        def worker(i):
            for n in range(OPS):
                key = ("k", (i * OPS + n) % 96)
                hit, value = cache.lookup(key)
                if hit:
                    assert value == key
                else:
                    cache.store(key, key, cost=1)

        _hammer(worker)
        counters = cache.counters()
        assert counters["entries"] <= 64
        assert counters["hits"] + counters["misses"] == THREADS * OPS
        # Every surviving entry still maps key -> key.
        for n in range(96):
            hit, value = cache.lookup(("k", n))
            if hit:
                assert value == ("k", n)

    def test_concurrent_absorb_and_clear(self):
        cache = ConstraintCache(maxsize=32)

        def worker(i):
            for n in range(OPS):
                if i == 0 and n % 50 == 0:
                    cache.clear()
                elif n % 3 == 0:
                    cache.absorb({"hits": 1, "misses": 2})
                else:
                    cache.store((i, n), n)

        _hammer(worker)
        assert len(cache) <= 32


class TestPlanCacheThreadSafety:
    def test_concurrent_lookup_store_evict(self):
        cache = PlanCache(maxsize=64)

        def worker(i):
            for n in range(OPS):
                key = (("q", (i * OPS + n) % 96), b"fp", ())
                hit, compiled, _saved = cache.lookup(key)
                if hit:
                    assert compiled == key
                else:
                    cache.store(key, key, seconds=0.001)

        _hammer(worker)
        counters = cache.counters()
        assert counters["entries"] <= 64
        assert counters["hits"] + counters["misses"] == THREADS * OPS

    def test_concurrent_ast_memo(self):
        cache = PlanCache(maxsize=16)
        texts = [f"SELECT X FROM Desk X WHERE X.color = 'c{n}'"
                 for n in range(24)]
        parsed: dict[str, object] = {}

        def worker(i):
            for n in range(OPS // 4):
                text = texts[(i + n) % len(texts)]
                ast = cache.ast_for(text, parse_query)
                # Structural equality: frozen AST dataclasses compare
                # by value, so a racing double-parse is benign.
                assert ast == parsed.setdefault(text, ast)

        _hammer(worker)

    def test_concurrent_note_schema_and_lookup(self):
        db, _ = build_office_database()
        cache = PlanCache(maxsize=64)

        def worker(i):
            for n in range(OPS // 4):
                fp = cache.note_schema(db.schema)
                key = (("q", n % 8), fp, ())
                hit, compiled, _saved = cache.lookup(key)
                if not hit:
                    cache.store(key, ("plan", n % 8), seconds=0.0)

        _hammer(worker)
        assert cache.counters()["invalidations"] == 0


class TestWorkerPoolThreadSafety:
    def test_concurrent_get_pool_single_survivor(self):
        parallel.shutdown_pool()
        seen: list[parallel.WorkerPool] = []
        lock = threading.Lock()

        def worker(i):
            for size in (2, 3, 2, 4, 2):
                pool, _cold = parallel.get_pool(size)
                assert pool.workers >= size
                with lock:
                    seen.append(pool)

        try:
            _hammer(worker, threads=6)
            final, cold = parallel.get_pool(2)
            assert not cold
            assert final.workers >= 4
            # Every pool handed out after the largest request is the
            # surviving pool object (no parallel replacement leaked).
            assert seen.count(final) > 0
        finally:
            parallel.shutdown_pool()

    @pytest.mark.skipif(not parallel._fork_available(),
                        reason="fork start method unavailable")
    def test_pool_usable_after_concurrent_growth(self):
        parallel.shutdown_pool()
        try:
            _hammer(lambda i: parallel.get_pool(2 + i % 3),
                    threads=4)
            pool, _cold = parallel.get_pool(2)
            assert pool.submit(len, (1, 2, 3)).result(timeout=30) == 3
        finally:
            parallel.shutdown_pool()


@pytest.mark.skipif(not parallel._fork_available(),
                    reason="fork start method unavailable")
class TestForkInheritThreadSafety:
    def test_concurrent_filters_inherit_their_own_payload(self):
        """Executor threads (more than cores) partition different rows
        under different closures at once; a worker forked under another
        thread's payload (or a cleared one) would return the wrong rows
        or crash."""
        results: dict[int, list] = {}

        def worker(i):
            rows = [(n,) for n in range(i * 1000, i * 1000 + 150 + i)]
            modulus = 3 + i

            def predicate(row):
                return row["a"] % modulus == 0

            ctx = QueryContext(parallelism=2)
            for _ in range(6):
                kept = parallel.filter_rows(("a",), rows, predicate,
                                            ctx=ctx)
                assert kept == [r for r in rows if r[0] % modulus == 0]
            results[i] = [ctx.stats.parallel_runs,
                          ctx.stats.parallel_fallbacks]

        parallel.reset_stats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(worker, threads=3)
        finally:
            sys.setswitchinterval(interval)
        if parallel.stats()["fallbacks"]:
            pytest.skip("process pool unavailable")
        assert results == dict.fromkeys(range(3), [6, 0])
