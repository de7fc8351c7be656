"""Unit tests for the server's process executor
(:class:`~repro.server.procexec.ProcessExecutor`) without the service
around it: one request per :meth:`~ProcessExecutor.run` on the
executor's own pool (reuse, recovery, budgets, warm-up, the context a
worker rebuilds), cancellation crossing the board mid-flight, and a
request no worker's reply served absorbed not at all, so its caller
runs it once."""

import contextlib
import pickle
import threading
import time

import pytest

from repro.core.parser import parse_query
from repro.model.oid import LiteralOid
from repro.runtime.cache import clear_global_cache
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.guard import ExecutionGuard
from repro.server import procexec
from repro.server.procexec import ProcessExecutor, request_events
from repro.server.service import ServiceStats

from tests.server.harness import SLOW_QUERY, office_db

pytestmark = pytest.mark.skipif(
    not procexec.fork_available(),
    reason="process executor needs a fork platform")

QUERY = "SELECT X, X.color FROM Office_Object X"

#: The paper's worked example: simplex and satisfiability work per row.
SOLVING_QUERY = """
    SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
    FROM Office_Object CO
    WHERE CO.extent[E] and CO.translation[D]
"""


@contextlib.contextmanager
def _executor(db=None, workers=2):
    executor = ProcessExecutor(
        workers, 0, db if db is not None else office_db(6, seed=1),
        ServiceStats())
    try:
        yield executor
    finally:
        executor.close()


def _account(executor) -> dict:
    return executor._account.snapshot()


def _run(executor, text=QUERY, guard=None, translated=True, **options):
    """``text`` as one request on ``executor``: ``(events, ctx)``,
    ``events`` ``None`` when no worker's reply served it."""
    ctx = QueryContext(guard=guard if guard is not None
                       else ExecutionGuard(),
                       stats=ExecutionStats(), **options)
    return executor.run(ctx, 0, parse_query(text), translated), ctx


def _in_process(db, text=QUERY, guard=None, translated=True, **options):
    ctx = QueryContext(guard=guard if guard is not None
                       else ExecutionGuard(),
                       stats=ExecutionStats(), **options)
    events = list(request_events(db, parse_query(text), translated, ctx))
    # As a worker does before it ships its account.
    ctx.stats.capture_guard(ctx.guard)
    return events, ctx


class TestWarmReuse:
    def test_second_dispatch_reuses_the_pool(self):
        db = office_db(6, seed=1)
        expected, _ctx = _in_process(db)
        with _executor(db) as executor:
            assert _run(executor)[0] == expected
            assert _run(executor)[0] == expected
            account = _account(executor)
        assert account["pool"]["pool_cold_starts"] == 1
        assert account["pool"]["pool_dispatches"] == 2
        assert account["process_fallbacks"] == 0

    def test_context_stats_record_warm_and_cold(self):
        with _executor() as executor:
            _events, first = _run(executor)
            _events, second = _run(executor)
        assert (first.stats.pool_cold_starts,
                first.stats.pool_dispatches) == (1, 1)
        assert (second.stats.pool_cold_starts,
                second.stats.pool_dispatches) == (0, 1)


class TestPoolDeath:
    def test_dead_pool_falls_back_and_recovers(self):
        with _executor() as executor:
            assert _run(executor)[0] is not None
            # Kill every warm worker behind the pool's back.
            for proc in list(executor._pool._processes.values()):
                proc.terminate()
                proc.join()
            # The dead pool is detected (at submit or at the wait) and
            # discarded; nothing came back for the caller to absorb.
            events, ctx = _run(executor)
            assert events is None
            assert ctx.stats.parallel_fallbacks == 1
            account = _account(executor)
            assert account["process_fallbacks"] == 1
            reasons = account["process_fallback_reasons"]
            assert reasons["undelivered"] + reasons["pool_start_failed"] \
                == 1
            # The next request forks a fresh pool.
            assert _run(executor)[0] is not None
            account = _account(executor)
        assert account["process_fallbacks"] == 1
        assert account["pool"]["pool_cold_starts"] == 2


class TestPoolBudgets:
    def test_guard_spend_absorbed_through_the_pool(self):
        db = office_db(6, seed=1)
        expected, direct = _in_process(
            db, SOLVING_QUERY, guard=ExecutionGuard(max_pivots=10**6),
            cache=None, plan_cache=None)
        guard = ExecutionGuard(max_pivots=10**6)
        with _executor(office_db(6, seed=1)) as executor:
            events, ctx = _run(executor, SOLVING_QUERY, guard=guard,
                               cache=None, plan_cache=None)
        assert events == expected
        assert ctx.stats.pool_dispatches == 1
        # The worker's spend came back once: the same work as the run
        # in this process.
        assert guard.pivots == direct.guard.pivots > 0
        assert guard.checkpoints == direct.guard.checkpoints

    def test_worker_gets_what_is_left(self):
        guard = ExecutionGuard(max_pivots=10)
        guard.absorb_spend({"pivots": 4})
        shipped = procexec._worker_limits(guard)
        assert procexec._guard_from_limits(shipped).max_pivots == 6
        # Through the pool: a request whose guard has spent all but
        # one pivot of what the query needs trips in the worker.
        db = office_db(6, seed=1)
        _events, direct = _in_process(db, SOLVING_QUERY, cache=None,
                                      plan_cache=None)
        needed = direct.guard.pivots
        assert needed >= 2
        guard = ExecutionGuard(max_pivots=needed)
        guard.absorb_spend({"pivots": needed - 1})
        with _executor(office_db(6, seed=1)) as executor:
            events, ctx = _run(executor, SOLVING_QUERY, guard=guard,
                               cache=None, plan_cache=None)
        assert ctx.stats.pool_dispatches == 1
        assert events[-1][:2] == ("error", "resource")
        assert "budget=pivots" in events[-1][2]

    def test_exhausted_parent_budget_falls_back_serial(self):
        guard = ExecutionGuard(max_pivots=5)
        guard.absorb_spend({"pivots": 5})
        with _executor() as executor:
            events, ctx = _run(executor, guard=guard)
            account = _account(executor)
        assert events is None
        assert ctx.stats.parallel_fallbacks == 1
        assert account["process_fallback_reasons"]["undelivered"] == 1
        # Nothing was submitted, so no pool was forked.
        assert account["pool"]["pool_cold_starts"] == 0


def _losing():
    """A ``_gather`` that waits for the worker, then reports its
    outcome lost (as if the worker died mid-run)."""
    real_gather = procexec._gather

    def gather(future, guard, slot):
        real_gather(future, guard, slot)
        return None, True
    return gather


class TestMidFlightCancel:
    def test_cancel_reaches_a_running_worker(self):
        db = office_db(30)
        clear_global_cache()    # the worker forks with a cold cache
        guard = ExecutionGuard()
        timer = threading.Timer(0.2, guard.cancel)
        with _executor(db) as executor:
            started = time.perf_counter()
            timer.start()
            try:
                events, ctx = _run(executor, SLOW_QUERY, guard=guard,
                                   translated=False)
            finally:
                timer.cancel()
            took = time.perf_counter() - started
        assert ctx.stats.pool_dispatches == 1
        assert events[-1][:2] == ("error", "cancelled")
        assert took < 5.0
        # The worker's spend came back once.
        assert guard.checkpoints > 0


class TestScatterTasks:
    """Requests on the executor's pool, one ``run`` each."""

    TEXTS = ["SELECT X FROM Office_Object X",
             QUERY,
             "SELECT X FROM Desk X",
             "SELECT X FROM Office_Object X WHERE X.color = 'red'",
             "SELECT X FROM Office_Object X WHERE X.color = 'grey'",
             "SELECT X FROM Office_Object X WHERE X.color = 'blue'",
             SOLVING_QUERY]

    def test_values_in_task_order_spend_absorbed(self):
        db = office_db(6, seed=1)
        direct = [_in_process(db, text, cache=None, plan_cache=None)
                  for text in self.TEXTS]
        guard = ExecutionGuard(max_pivots=10**6)
        with _executor(office_db(6, seed=1), workers=3) as executor:
            served = [_run(executor, text, guard=guard, cache=None,
                           plan_cache=None)[0]
                      for text in self.TEXTS]
            account = _account(executor)
        # Each request hands back its own events, and each worker's
        # spend is absorbed once into the parent guard.
        assert served == [events for events, _ctx in direct]
        assert guard.pivots == sum(ctx.guard.pivots
                                   for _events, ctx in direct)
        assert account["pool"]["pool_dispatches"] == 7
        assert account["pool"]["pool_cold_starts"] == 1
        assert account["process_fallbacks"] == 0

    def test_no_headroom_falls_back_serial(self):
        guard = ExecutionGuard(deadline=0.05)
        guard.start()
        time.sleep(0.06)
        db = office_db(6, seed=1)
        with _executor(db) as executor:
            events, ctx = _run(executor, guard=guard)
            account = _account(executor)
        assert events is None
        # The caller then runs the request itself, under its own
        # guard, so the deadline trips where it would in-process.
        events = list(request_events(db, parse_query(QUERY), True, ctx))
        assert events[-1][:2] == ("error", "resource")
        assert "budget=deadline" in events[-1][2]
        assert account["process_fallback_reasons"]["undelivered"] == 1
        assert account["pool"]["pool_dispatches"] == 0

    def test_cancel_propagates_through_the_board(self):
        guard = ExecutionGuard()
        guard.cancel()
        with _executor() as executor:
            events, ctx = _run(executor, guard=guard)
        assert ctx.stats.pool_dispatches == 1
        assert [event[:2] for event in events] == [("error", "cancelled")]
        assert guard.pivots == 0

    def test_salvages_lost_tasks_in_process(self, monkeypatch):
        db = office_db(6, seed=1)
        guard = ExecutionGuard(max_pivots=10**6)
        with _executor(db) as executor:
            monkeypatch.setattr(procexec, "_gather", _losing())
            events, ctx = _run(executor, SOLVING_QUERY, guard=guard,
                               cache=None, plan_cache=None)
            assert events is None
            # Nothing of the lost outcome was absorbed: the caller's
            # own run is the only spend.
            assert guard.pivots == 0
            assert ctx.stats.pool_dispatches == 0
            list(request_events(db, parse_query(SOLVING_QUERY), True,
                                ctx))
            assert guard.pivots > 0
            account = _account(executor)
            assert account["process_fallback_reasons"]["undelivered"] == 1
            # A lost worker means a broken pool: the next request forks
            # a fresh one.
            monkeypatch.undo()
            assert _run(executor)[0] is not None
            account = _account(executor)
        assert account["pool"]["pool_cold_starts"] == 2

    def test_unpicklable_task_fails_alone(self):
        class LocalLiteral(LiteralOid):
            """Instances of a function-local class do not pickle."""
            __slots__ = ()

        text = "SELECT X FROM Office_Object X WHERE X.color = $c"
        with _executor() as executor:
            assert _run(executor)[0] is not None
            pool = executor._pool
            events, _ctx = _run(executor, text,
                                params={"c": LocalLiteral("red")})
            assert events is None
            # One future failed, not the pool: the same workers serve
            # the next request.
            assert _run(executor, text,
                        params={"c": LiteralOid("red")})[0] is not None
            assert executor._pool is pool
            account = _account(executor)
        assert account["pool"]["pool_dispatches"] == 2
        assert account["process_fallback_reasons"]["undelivered"] == 1
        assert account["pool"]["pool_cold_starts"] == 1

    def test_worker_context_carries_every_option(self):
        options = dict(cache=None, plan_cache=None,
                       params={"c": LiteralOid("red")}, shards=4,
                       use_optimizer=False, prefilter=False,
                       indexing=False, numeric=False)
        ctx = QueryContext(**options)
        rebuilt = QueryContext(**pickle.loads(pickle.dumps(
            procexec.context_options(ctx))))
        for name in ("cache", "plan_cache", "params", "shards",
                     "use_optimizer", "prefilter", "indexing",
                     "numeric"):
            assert getattr(rebuilt, name) == getattr(ctx, name), name
        # Through the pool: the worker does the same work this process
        # does under the same options, none of it through a cache.
        text = SOLVING_QUERY + " and CO.color = $c"
        expected, direct = _in_process(office_db(6, seed=1), text,
                                       **options)
        with _executor(office_db(6, seed=1)) as executor:
            events, served = _run(executor, text, **options)
        assert served.stats.pool_dispatches == 1
        assert events == expected
        counters = ("pivots", "simplex_calls", "box_checks",
                    "numeric_accepts", "index_probes", "shard_joins",
                    "cache_hits", "cache_misses", "plan_cache_hits",
                    "plan_cache_misses", "catalog_rebuilds")
        assert {name: getattr(served.stats, name) for name in counters} \
            == {name: getattr(direct.stats, name) for name in counters}
        assert direct.stats.plan_cache_misses == 0
        assert direct.stats.cache_misses == 0


class TestWarm:
    def test_warm_preforks_workers(self):
        with _executor() as executor:
            assert executor.warm() >= 1
            assert _account(executor)["pool"]["pool_cold_starts"] == 1
            # A request after warm-up reuses the warmed pool.
            assert _run(executor)[0] is not None
            account = _account(executor)
        assert account["pool"]["pool_cold_starts"] == 1
        assert account["pool"]["pool_dispatches"] == 1
