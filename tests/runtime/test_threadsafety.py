"""Thread-safety of the process-wide singletons concurrent sessions
share: the constraint cache, the compiled-plan cache, a service's
worker pool, and the flat catalog a database keeps between queries.

Before the serving layer these objects were only ever touched from one
thread; the query server executes requests on a thread pool, so every
one of them is hammered from many threads here.  The assertions are
about *structural* integrity (no lost entries past the bound, no
corrupted ``OrderedDict``, exactly one pool forked) — individual
counter interleavings are allowed to race benignly.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from repro import lyric
from repro.model.office import build_office_database
from repro.model.relations import flatten
from repro.runtime.cache import ConstraintCache
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.locks import fork_safe_lock
from repro.runtime.plancache import PlanCache
from repro.core.parser import parse_query
from repro.server import QueryService, ServerLimits, procexec

from tests.server.harness import office_db

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
        t.join(timeout=120)
    if errors:
        raise errors[0]
    assert not any(t.is_alive() for t in pool), "a worker hung"


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
    """One service, one pool: concurrent first requests fork it once,
    a mutation replaces it once, and ``close()`` joins every worker."""

    TEXTS = ["SELECT X FROM Office_Object X",
             "SELECT X, X.color FROM Office_Object X",
             "SELECT X FROM Desk X",
             "SELECT D FROM Drawer D"]

    @staticmethod
    async def _drain_all(service, texts):
        subscriptions = await asyncio.gather(*[
            service.submit(service.parse(text)) for text in texts])
        return [[event async for event in sub.events()]
                for sub in subscriptions]

    @pytest.mark.skipif(not procexec.fork_available(),
                        reason="fork start method unavailable")
    def test_concurrent_first_requests_fork_one_pool(self):
        async def main():
            service = QueryService(office_db(6), executor_threads=4,
                                   executor="process",
                                   limits=ServerLimits(max_workers=2))
            try:
                events = await self._drain_all(service, self.TEXTS)
                return events, service.stats.snapshot()
            finally:
                service.close()
        events, snap = asyncio.run(main())
        assert [each[-1][0] for each in events] == ["done"] * 4
        assert snap["process_requests"] == 4
        assert snap["pool"]["pool_cold_starts"] == 1
        assert snap["execution"]["pool_cold_starts"] == 1

    @pytest.mark.skipif(not procexec.fork_available(),
                        reason="fork start method unavailable")
    def test_a_mutation_forks_one_more_and_close_joins_every_worker(
            self):
        async def main():
            service = QueryService(office_db(6), executor_threads=4,
                                   executor="process",
                                   limits=ServerLimits(max_workers=2))
            workers = set()
            try:
                await self._drain_all(service, self.TEXTS)
                workers |= set(service._procexec._pool._processes)
                await service.run_view(
                    "CREATE VIEW Tall AS SUBCLASS OF Office_Object "
                    "SELECT CO FROM Office_Object CO")
                events = await self._drain_all(
                    service, self.TEXTS + ["SELECT T FROM Tall T"])
                workers |= set(service._procexec._pool._processes)
                snap = service.stats.snapshot()
            finally:
                service.close()
            return events, snap, workers
        events, snap, workers = asyncio.run(main())
        assert [each[-1][0] for each in events] == ["done"] * 5
        assert snap["process_requests"] == 9
        assert snap["pool"]["pool_cold_starts"] == 2
        assert len(workers) == 4
        alive = {child.pid for child in multiprocessing.active_children()}
        assert not workers & alive


class TestForkSafeLock:
    @pytest.mark.skipif(not procexec.fork_available(),
                        reason="fork start method unavailable")
    def test_a_fork_waits_for_the_holder(self):
        """A thread holds the lock across a fork request: the fork
        happens after the release, and the child's copy is free."""
        lock = fork_safe_lock()
        held = threading.Event()
        released = []

        def holder():
            with lock:
                held.set()
                time.sleep(0.1)
                released.append(True)

        thread = threading.Thread(target=holder)
        thread.start()
        held.wait()
        pid = os.fork()
        if pid == 0:
            os._exit(0 if lock.acquire(blocking=False) else 1)
        assert released == [True]
        thread.join()
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert lock.acquire(blocking=False)
        lock.release()

    def test_the_package_imports_where_nothing_can_fork(self):
        """``os.register_at_fork`` is Unix-only; the module-level
        catalog and index-cache locks are made at import."""
        script = (
            "import os, multiprocessing, concurrent.futures.process\n"
            "del os.register_at_fork\n"
            "from repro import lyric\n"
            "from repro.model.office import build_office_database\n"
            "db, _ = build_office_database()\n"
            "assert len(lyric.query_translated("
            "db, 'SELECT X FROM Desk X')) == 1\n")
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              env=os.environ | {"PYTHONPATH": os.pathsep.join(
                                  sys.path)})
        assert done.returncode == 0, done.stderr


class TestCatalogThreadSafety:
    QUERY = "SELECT X, C FROM Desk X WHERE X.color[C]"

    def colors(self, db, stats=None):
        ctx = QueryContext(stats=stats or ExecutionStats())
        return [row.values[1].value
                for row in lyric.query_translated(db, self.QUERY, ctx=ctx)]

    def test_concurrent_first_queries_build_one_catalog(self):
        """More threads than cores ask for the catalog of a database
        that has none yet: one of them builds it, under the lock, and
        everybody gets that one."""
        db, _ = build_office_database()
        accounts = [ExecutionStats() for _ in range(THREADS)]
        catalogs = []

        def worker(i):
            assert self.colors(db, accounts[i]) == ["red"]
            catalogs.append(flatten(db))

        _hammer(worker)
        assert sum(a.catalog_rebuilds for a in accounts) == 1
        assert [a.catalog_rebuild_reason for a in accounts
                if a.catalog_rebuilds] == ["first_use"]
        assert all(c is catalogs[0] for c in catalogs)

    def test_readers_never_keep_a_catalog_a_write_outdated(self):
        """Readers query while one writer recolours the desk through
        both mutation routes.  A query that starts after the writer's
        n-th write returned sees that write or a later one: a version
        bumped *before* its change (the slow writes below hold that
        window open) or a lost invalidation would leave an outdated
        catalog under the current version, and every later query would
        be served from it."""
        db, oids = build_office_database()
        order = {"red": -1} | {f"colour-{n}": n for n in range(40)}
        written = [-1]

        class Slowly(list):
            """A one-member value set whose conversion gives the
            readers time to run."""
            def __iter__(self):
                time.sleep(0.002)
                return super().__iter__()

        def worker(i):
            if i == 0:
                try:
                    for colour, n in list(order.items())[1:]:
                        if n % 2:
                            db.update_attribute(oids.standard_desk,
                                                "color", colour)
                        else:
                            db.object(oids.standard_desk).set(
                                "color", Slowly([colour]))
                        written[0] = n
                        time.sleep(0.001)   # readers see it complete
                finally:
                    written.append("done")
                return
            while len(written) == 1:
                floor = written[0]
                (seen,) = self.colors(db)
                assert order[seen] >= floor

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert self.colors(db) == ["colour-39"]
        assert flatten(db).key == (db.version, db.schema.version, 0)
