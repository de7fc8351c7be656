"""The process executor end to end: one request body
(``request_events``) whose events are the frames either executor
publishes (stats timing aside), CANCEL crosses the cancel board into a
busy worker, requests beyond the pool queue for a worker with their
deadline running, every fallback (undelivered, stale fork) still serves
correct rows from the executor thread under its reason,
warm-up/STATS surface the pool account, each service's pool answers
from that service's database, and a fork never leaves a worker holding
a cache lock."""

import asyncio
import multiprocessing
import threading
import time
from concurrent.futures import process as futures_process

import pytest

from repro.core.parser import parse_query
from repro.errors import QueryCancelled
from repro.model.oid import LiteralOid
from repro.runtime.cache import clear_global_cache, get_global_cache
from repro.runtime.plancache import get_global_plan_cache
from repro.runtime.context import ExecutionStats, QueryContext
from repro.server import QueryService, procexec

from tests.server.harness import (
    SLOW_QUERY,
    ServerLimits,
    client_for,
    office_db,
    rows_bytes,
    serving,
)

pytestmark = pytest.mark.skipif(
    not procexec.fork_available(),
    reason="process executor needs a fork platform")


async def drain(subscription):
    return [event async for event in subscription.events()]


def frames(events):
    """Everything but the stats frame — the one frame where the two
    executors legitimately differ (timing, cache warmth, pool
    bookkeeping).  Rows, warnings, and the terminal must match byte
    for byte."""
    return [e for e in events if e[0] != "stats"]


async def _run_once(db, text, executor, *, guard_spec=None,
                    translated=True, params=None):
    service = QueryService(db, executor_threads=2, executor=executor)
    try:
        subscription = await service.submit(
            service.parse(text), guard_spec=guard_spec,
            translated=translated, params=params)
        events = await drain(subscription)
        return events, service.stats.snapshot()
    finally:
        service.close()


class TestFrameEquivalence:
    @staticmethod
    def _both_executors(db, text, params=None):
        async def main():
            thread_events, thread_snap = await _run_once(
                db, text, "thread", params=params)
            process_events, process_snap = await _run_once(
                db, text, "process", params=params)
            return (thread_events, thread_snap,
                    process_events, process_snap)
        return asyncio.run(main())

    def test_process_frames_match_thread_frames(self):
        db = office_db(6, seed=3)
        thread_events, thread_snap, process_events, process_snap = \
            self._both_executors(
                db, "SELECT X, X.color FROM Office_Object X")
        assert frames(process_events) == frames(thread_events)
        assert thread_snap["executor"] == "thread"
        assert thread_snap["process_requests"] == 0
        assert process_snap["executor"] == "process"
        assert process_snap["process_requests"] == 1
        assert process_snap["process_fallbacks"] == 0
        # A translated CST template: its bindings cross into the
        # worker with it.
        thread_events, _, process_events, process_snap = \
            self._both_executors(db, """
                SELECT CO, ((u,v) | E and D and x = $px and y = $py)
                FROM Office_Object CO
                WHERE CO.extent[E] and CO.translation[D]
            """, {"px": LiteralOid(6), "py": LiteralOid(4)})
        assert frames(process_events) == frames(thread_events)
        assert process_snap["process_fallbacks"] == 0

    def test_degrade_partial_frames_match(self):
        # The partial prefix depends on where the budget trips, which
        # depends on constraint-cache warmth — equalize by clearing
        # before each run (the pool forks after the clear, so workers
        # inherit the same cold cache the thread run started from).
        db = office_db(10, seed=4)
        spec = {"max_canonical": 60, "on_exhaustion": "degrade"}

        async def main():
            clear_global_cache()
            thread_events, _ = await _run_once(
                db, SLOW_QUERY, "thread", guard_spec=spec,
                translated=False)
            clear_global_cache()
            process_events, snap = await _run_once(
                db, SLOW_QUERY, "process", guard_spec=spec,
                translated=False)
            return thread_events, process_events, snap
        thread_events, process_events, snap = asyncio.run(main())
        assert process_events[-1][0] == "done"
        assert process_events[-1][1]["partial"] is True
        assert frames(process_events) == frames(thread_events)
        assert snap["process_requests"] == 1


class TestRequestEvents:
    """The one place the event sequence is spelled out: zero or more
    ``rows``, zero or more ``warning``, then ``done`` or ``error`` —
    and a thread-mode job publishes exactly that, plus one ``stats``
    event ahead of ``done`` (none ahead of ``error``)."""

    @pytest.mark.parametrize("n, text, translated, spec, kinds, last", [
        # More rows than one batch holds: two ``rows`` events.
        (40, "SELECT X FROM Office_Object X", True, None,
         ["rows", "rows", "done"], {"engine": "translated", "rows": 40}),
        (6, "SELECT A FROM Drawer D WHERE D.A['red']", True, None,
         ["rows", "done"], {"engine": "naive", "partial": False}),
        # The canonicalisation budget trips mid-stream: what was
        # produced before it stands, then the warning, then ``done``
        # ... or, under the fail policy, the error after the one full
        # batch already yielded.
        (10, SLOW_QUERY, False,
         {"max_canonical": 200, "on_exhaustion": "degrade"},
         ["rows", "rows", "warning", "done"], {"partial": True}),
        (10, SLOW_QUERY, False, {"max_canonical": 200},
         ["rows", "error"], "resource"),
        (10, "SELECT X FROM Office_Object X WHERE X.color = $c", True,
         None, ["error"], "evaluation"),
    ], ids=["translated", "naive_fallback", "degrade_to_partial",
            "budget_trips_mid_stream", "unbound_parameter"])
    def test_events_are_what_a_thread_mode_job_publishes(
            self, n, text, translated, spec, kinds, last):
        # Each side gets its own cold database and constraint cache:
        # where a budget trips depends on what earlier runs memoized.
        async def main():
            clear_global_cache()
            return (await _run_once(
                office_db(n, seed=4), text, "thread", guard_spec=spec,
                translated=translated))[0]
        served = asyncio.run(main())
        clear_global_cache()
        ctx = QueryContext(guard=ServerLimits().effective_guard(spec),
                           stats=ExecutionStats())
        direct = list(procexec.request_events(
            office_db(n, seed=4), parse_query(text), translated, ctx))
        assert direct == frames(served)
        assert [e[0] for e in direct] == kinds
        assert [e[0] for e in served] == kinds[:-1] \
            + ["stats"] * (kinds[-1] == "done") + kinds[-1:]
        assert all(len(e[1]) <= procexec.ROW_BATCH
                   for e in direct if e[0] == "rows")
        if kinds[-1] == "done":
            assert last.items() <= direct[-1][1].items()
        else:
            assert direct[-1][1] == last


class TestCancellation:
    def test_cancel_crosses_the_board_into_the_worker(self):
        db = office_db(30)
        clear_global_cache()    # the worker forks with a cold cache

        async def main():
            service = QueryService(db, executor_threads=2,
                                   executor="process")
            try:
                subscription = await service.submit(
                    service.parse(SLOW_QUERY))
                await asyncio.sleep(0.3)  # worker is mid-solve
                subscription.cancel()
                events = await drain(subscription)
                assert events[-1][:2] == ("error", "cancelled")
                # The worker observes the board at its next checkpoint
                # and ships a clean cancelled reply — wait for the
                # request to drain rather than hang in the pool.
                for _ in range(200):
                    if service.stats.snapshot()["cancellations"]:
                        break
                    await asyncio.sleep(0.05)
                snap = service.stats.snapshot()
                assert snap["cancellations"] == 1
                assert snap["process_requests"] == 1
            finally:
                service.close()
        asyncio.run(main())

    def test_cancel_mid_stream_over_the_wire(self):
        db = office_db(30, seed=0)

        async def main():
            async with serving(db, executor="process") as server, \
                    client_for(server) as client:
                stream = await client.stream(SLOW_QUERY,
                                             translated=False)
                await asyncio.sleep(0.3)
                await stream.cancel()
                with pytest.raises(QueryCancelled):
                    async for _row in stream:
                        pass
                # Same connection, next query: fine.
                result = await client.query("SELECT X FROM Desk X")
                assert len(result.rows) > 0
                # The worker only observes the cancel board at its
                # next checkpoint, so the cancelled request drains
                # asynchronously — poll for its accounting.
                stats = await client.stats()
                for _ in range(200):
                    if stats["cancellations"]:
                        break
                    await asyncio.sleep(0.05)
                    stats = await client.stats()
                assert stats["cancellations"] >= 1
                assert stats["executor"] == "process"
        asyncio.run(main())


class TestQueueing:
    def test_requests_beyond_the_pool_queue_for_a_worker(self):
        db = office_db(8, seed=5)
        texts = [SLOW_QUERY,
                 "SELECT X FROM Office_Object X",
                 "SELECT X, X.color FROM Office_Object X",
                 "SELECT X FROM Desk X"]

        async def main():
            baseline = [(await _run_once(db, text, "thread"))[0]
                        for text in texts]
            service = QueryService(db, executor_threads=4,
                                   executor="process",
                                   limits=ServerLimits(max_workers=1))
            try:
                # Four distinct queries at once, one worker: three wait
                # for it, none is served anywhere else.
                subscriptions = await asyncio.gather(*[
                    service.submit(service.parse(text))
                    for text in texts])
                events = await asyncio.gather(
                    *[drain(s) for s in subscriptions])
                return baseline, events, service.stats.snapshot()
            finally:
                service.close()
        baseline, events, snap = asyncio.run(main())
        assert [e[-1][0] for e in events] == ["done"] * 4
        assert [frames(e) for e in events] \
            == [frames(e) for e in baseline]
        assert snap["process_fallbacks"] == 0
        assert snap["process_requests"] == 4
        assert set(snap["process_fallback_reasons"]) \
            == {"undelivered", "stale", "pool_start_failed"}

    def test_the_deadline_runs_while_a_request_waits(self):
        db = office_db(30)
        clear_global_cache()    # the worker forks with a cold cache

        async def main():
            service = QueryService(db, executor_threads=2,
                                   executor="process",
                                   limits=ServerLimits(max_workers=1))
            try:
                slow = await service.submit(service.parse(SLOW_QUERY))
                await asyncio.sleep(0.2)  # the worker is taken
                quick = await service.submit(
                    service.parse("SELECT X, X.color "
                                  "FROM Office_Object X"),
                    guard_spec={"deadline": 0.2})
                events = await drain(quick)
                slow.cancel()
                return events, service.stats.snapshot()
            finally:
                service.close()
        events, snap = asyncio.run(main())
        # The quick query would take milliseconds; its 0.2 s were
        # spent in the queue, so the worker trips it on arrival.
        assert events[-1][:2] == ("error", "resource")
        assert "budget=deadline" in events[-1][2]
        assert snap["process_fallbacks"] == 0


class TestFallbacks:
    def test_unpicklable_request_takes_the_thread_path(self):
        db = office_db(5, seed=1)
        text = ("SELECT X, X.color FROM Office_Object X "
                "WHERE X.color = $c")

        class LocalLiteral(LiteralOid):
            """Instances of a function-local class do not pickle."""
            __slots__ = ()

        params = {"c": LocalLiteral("red")}

        async def run(executor):
            service = QueryService(db, executor_threads=2,
                                   executor=executor)
            try:
                events = await drain(await service.submit(
                    service.parse(text), params=params))
                next_events = await drain(await service.submit(
                    service.parse("SELECT X FROM Office_Object X")))
                return events, next_events, service.stats.snapshot()
            finally:
                service.close()

        async def main():
            return await run("thread"), await run("process")
        (baseline_events, _, _), (events, next_events, snap) = \
            asyncio.run(main())
        assert baseline_events[-1][1]["rows"] > 0
        assert frames(events) == frames(baseline_events)
        assert snap["process_fallbacks"] == 1
        assert snap["process_fallback_reasons"]["undelivered"] == 1
        # The bad request failed its own future, not the pool: the
        # next request is served by the same (once-started) workers.
        assert next_events[-1][0] == "done"
        assert snap["process_requests"] == 1
        assert snap["pool"]["pool_cold_starts"] == 1

    def test_stale_fork_falls_back_silently(self):
        db = office_db(5, seed=2)
        text = "SELECT X FROM Office_Object X"

        async def main():
            baseline_events, _ = await _run_once(db, text, "thread")
            service = QueryService(db, executor_threads=2,
                                   executor="process")
            try:
                # Sabotage: the pool will fork inheriting a version
                # the service never serves, so the worker reports
                # stale and the threads answer instead.
                service._procexec.replace(999, db)
                events = await drain(await service.submit(
                    service.parse(text)))
                snap = service.stats.snapshot()
            finally:
                service.close()
            return baseline_events, events, snap
        baseline_events, events, snap = asyncio.run(main())
        assert frames(events) == frames(baseline_events)
        assert snap["process_requests"] == 0
        assert snap["process_fallbacks"] == 1
        assert snap["process_fallback_reasons"]["stale"] == 1

    def test_mutation_republishes_to_fresh_workers(self):
        async def main():
            service = QueryService(office_db(4), executor_threads=2,
                                   executor="process")
            try:
                await drain(await service.submit(
                    service.parse("SELECT X FROM Office_Object X")))
                await service.run_view(
                    "CREATE VIEW Tall AS SUBCLASS OF Office_Object "
                    "SELECT CO FROM Office_Object CO")
                events = await drain(await service.submit(
                    service.parse("SELECT T FROM Tall T")))
                assert events[-1][0] == "done"
                assert events[-1][1]["rows"] > 0
                snap = service.stats.snapshot()
                # Both queries ran in workers: the post-mutation pool
                # forked fresh and inherited the new database.
                assert snap["process_requests"] == 2
                assert snap["process_fallbacks"] == 0
            finally:
                service.close()
        asyncio.run(main())


class TestWarmAndStats:
    def test_warm_pool_preforks_and_stats_expose_the_account(self):
        async def main():
            service = QueryService(office_db(4), executor_threads=2,
                                   executor="process")
            try:
                assert service.warm_pool() >= 1
                snap = service.stats.snapshot()
                assert snap["pool"]["pool_cold_starts"] == 1
                await drain(await service.submit(
                    service.parse("SELECT X FROM Office_Object X")))
                snap = service.stats.snapshot()
                # The warmed pool served the query — no second fork.
                assert snap["pool"]["pool_cold_starts"] == 1
                assert snap["process_requests"] == 1
            finally:
                service.close()
        asyncio.run(main())

    def test_close_joins_the_pool_manager_thread(self):
        """Nothing is left for the interpreter's exit hook
        (``concurrent.futures.process._python_exit``) to wake: a wakeup
        racing a manager thread that closes its pipe printed
        ``OSError: [Errno 9] Bad file descriptor`` on SIGTERM."""
        async def main():
            service = QueryService(office_db(4), executor_threads=2,
                                   executor="process")
            try:
                assert service.warm_pool() >= 1
                await drain(await service.submit(
                    service.parse("SELECT X FROM Office_Object X")))
                assert any(thread.is_alive() for thread
                           in list(futures_process._threads_wakeups))
            finally:
                service.close()
            assert not [thread for thread
                        in list(futures_process._threads_wakeups)
                        if thread.is_alive()]
        asyncio.run(main())

    def test_thread_mode_has_no_pool_to_warm(self):
        service = QueryService(office_db(2), executor_threads=2,
                               executor="thread")
        try:
            assert service.warm_pool() == 0
        finally:
            service.close()

    def test_stats_verb_reports_executor_over_the_wire(self):
        async def main():
            async with serving(executor="process") as server, \
                    client_for(server) as client:
                await client.query("SELECT X FROM Office_Object X")
                stats = await client.stats()
                assert stats["executor"] == "process"
                assert stats["process_requests"] == 1
                assert "pool_cold_starts" in stats["pool"]
        asyncio.run(main())


class TestOnePoolPerService:
    def test_two_services_answer_from_their_own_databases(self):
        """Two process-mode services in one interpreter: each pool
        forks with its own service's database, whatever the other
        service did since."""
        text = "SELECT X, X.color FROM Office_Object X"
        small, big = office_db(3, seed=7), office_db(9, seed=8)

        async def main():
            expected = [(await _run_once(db, text, "thread"))[0]
                        for db in (small, big)]
            first = QueryService(small, executor_threads=2,
                                 executor="process")
            second = QueryService(big, executor_threads=2,
                                  executor="process")
            try:
                answers = []
                for service in (first, second, first, second):
                    answers.append(await drain(await service.submit(
                        service.parse(text))))
                snaps = [first.stats.snapshot(),
                         second.stats.snapshot()]
            finally:
                first.close()
                second.close()
            return expected, answers, snaps
        expected, answers, snaps = asyncio.run(main())
        assert expected[0][-1][1]["rows"] != expected[1][-1][1]["rows"]
        assert [frames(a) for a in answers] \
            == [frames(e) for e in expected * 2]
        for snap in snaps:
            assert snap["process_requests"] == 2
            assert snap["process_fallbacks"] == 0
            assert snap["pool"]["pool_cold_starts"] == 1


class TestForkWithAHeldCacheLock:
    @pytest.mark.parametrize("cache", [get_global_plan_cache,
                                       get_global_cache],
                             ids=["plan_cache", "constraint_cache"])
    def test_a_worker_forked_meanwhile_does_not_hang(self, cache):
        """A thread holds a process-wide cache lock while the first
        request forks the pool: the workers start with the lock free,
        and the request, which reads both caches, finishes."""
        db = office_db(3, seed=1)
        text = """
            SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
            FROM Office_Object CO
            WHERE CO.extent[E] and CO.translation[D]
        """
        lock = cache()._lock
        held = threading.Event()

        def holder():
            with lock:
                held.set()
                time.sleep(0.5)

        async def main():
            expected, _ = await _run_once(db, text, "thread")
            service = QueryService(db, executor_threads=2,
                                   executor="process")
            thread = threading.Thread(target=holder)
            try:
                query_ast = service.parse(text)
                thread.start()
                held.wait()
                try:
                    events = await asyncio.wait_for(
                        drain(await service.submit(query_ast)),
                        timeout=20)
                except asyncio.TimeoutError:
                    # A worker stuck on the lock copy: end it, so the
                    # pool can be joined and the failure reported.
                    for child in multiprocessing.active_children():
                        child.terminate()
                    raise
                return expected, events, service.stats.snapshot()
            finally:
                thread.join()
                service.close()
        expected, events, snap = asyncio.run(main())
        assert events[-1][0] == "done"
        assert frames(events) == frames(expected)
        assert snap["process_requests"] == 1
