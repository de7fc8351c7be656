"""Unit tests for the server's process executor: one task per
:func:`~repro.runtime.parallel.dispatch` on the persistent pool (reuse,
growth, recovery, budgets, warm-up, the context a pool worker
rebuilds), cancellation crossing the board mid-flight, and a task the
pool did not deliver absorbed not at all, so its caller runs it once."""

import threading
import time

import pytest

from repro.errors import DeadlineExceeded, QueryCancelled
from repro.runtime import parallel
from repro.runtime.context import QueryContext, current_context
from repro.runtime.guard import ExecutionGuard
from repro.runtime.parallel import get_pool, shutdown_pool


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    parallel.reset_stats()
    shutdown_pool()
    yield
    shutdown_pool()


def _skip_unless_parallel():
    if parallel.stats()["fallbacks"]:
        pytest.skip("process pool unavailable")


def _dispatch(fn, *args, width=2):
    """``fn(*args)`` on the persistent pool under the ambient context,
    as the server dispatches a request."""
    return parallel.dispatch(fn, args, current_context(), width)


def _pool_available() -> bool:
    """Probe once whether real pool dispatch works on this runner,
    then discard the pool and the counters the probe touched."""
    _value, reason = _dispatch(_identity, 0)
    shutdown_pool()
    parallel.reset_stats()
    return reason is None


# Task functions are module-level: the pool pickles them.


def _identity(x):
    return x


def _square(x):
    current_context().guard.tick_pivots(1)
    return x * x


def _pivot_budget():
    return current_context().guard.max_pivots


def _until_cancelled(pause):
    """Tick and checkpoint until the guard cancels; a task turns its
    own errors into its value, as the server's request body does."""
    guard = current_context().guard
    try:
        while True:
            guard.checkpoint("cancel-test")
            guard.tick_pivots(1)
            time.sleep(pause)
    except QueryCancelled:
        return "cancelled"


def _report_context():
    ctx = current_context()
    return {"cache_off": ctx.cache is None,
            "plan_cache_off": ctx.plan_cache is None,
            "params": ctx.params, "shards": ctx.shards,
            "use_optimizer": ctx.use_optimizer,
            "prefilter": ctx.prefilter, "indexing": ctx.indexing,
            "numeric": ctx.numeric}


class TestWarmReuse:
    def test_second_dispatch_reuses_the_pool(self):
        _dispatch(_identity, 1)
        _skip_unless_parallel()
        assert _dispatch(_identity, 2) == (2, None)
        stats = parallel.stats()
        assert stats["pool_cold_starts"] == 1
        assert stats["pool_dispatches"] == 2

    def test_growing_replaces_the_pool(self):
        _dispatch(_identity, 1, width=2)
        _skip_unless_parallel()
        _dispatch(_identity, 1, width=4)
        assert parallel.stats()["pool_cold_starts"] == 2

    def test_smaller_request_keeps_the_bigger_pool(self):
        pool, cold = get_pool(4)
        assert cold
        again, cold = get_pool(2)
        assert again is pool and not cold

    def test_context_stats_record_warm_and_cold(self):
        ctx = QueryContext()
        with ctx.activate():
            _dispatch(_identity, 1)
            _skip_unless_parallel()
            _dispatch(_identity, 2)
        assert ctx.stats.pool_cold_starts == 1
        assert ctx.stats.pool_dispatches == 2


class TestPoolDeath:
    def test_dead_pool_falls_back_and_recovers(self):
        _dispatch(_identity, 3)
        _skip_unless_parallel()
        # Kill every warm worker behind the pool's back.
        pool, cold = get_pool(2)
        assert not cold
        for proc in list(pool._executor._processes.values()):
            proc.terminate()
            proc.join()
        # The dead pool is detected (at submit or at the wait) and
        # discarded; nothing came back for the caller to absorb.
        value, reason = _dispatch(_identity, 3)
        assert value is None
        assert reason in ("worker_lost", "pool_start_failed")
        stats = parallel.stats()
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"][reason] == 1
        # The next dispatch cold-starts a fresh pool.
        assert _dispatch(_identity, 3) == (3, None)
        stats = parallel.stats()
        assert stats["fallbacks"] == 1
        assert stats["pool_cold_starts"] == 2


class TestPoolBudgets:
    def test_guard_spend_absorbed_through_the_pool(self):
        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard).activate():
            value, _reason = _dispatch(_square, 6)
        _skip_unless_parallel()
        assert value == 36
        assert parallel.stats()["pool_dispatches"] == 1
        assert guard.pivots == 1

    def test_worker_gets_what_is_left(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        guard = ExecutionGuard(max_pivots=10)
        guard.absorb_spend({"pivots": 4})
        with QueryContext(guard=guard).activate():
            assert _dispatch(_pivot_budget) == (6, None)

    def test_exhausted_parent_budget_falls_back_serial(self):
        guard = ExecutionGuard(max_pivots=5)
        guard.absorb_spend({"pivots": 5})
        with QueryContext(guard=guard).activate():
            assert _dispatch(_square, 2) == (None, "no_headroom")
        stats = parallel.stats()
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"]["no_headroom"] == 1
        # Nothing was submitted, so no pool was started.
        assert stats["pool_cold_starts"] == 0


def _losing():
    """A ``_gather`` that waits for the worker, then reports its
    outcome lost (as if the worker died mid-run)."""
    real_gather = parallel._gather

    def gather(future, guard, slot):
        real_gather(future, guard, slot)
        return None, True
    return gather


class TestMidFlightCancel:
    def test_cancel_reaches_a_running_worker(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        guard = ExecutionGuard()
        timer = threading.Timer(0.2, guard.cancel)
        started = time.perf_counter()
        timer.start()
        try:
            with QueryContext(guard=guard).activate():
                value, reason = _dispatch(_until_cancelled, 0.01)
        finally:
            timer.cancel()
        assert (value, reason) == ("cancelled", None)
        assert time.perf_counter() - started < 2.0
        # The worker's spend came back once: it ticked once per pass
        # and checkpointed once more to see the cancel.
        assert guard.pivots > 0
        assert guard.checkpoints == guard.pivots + 1


class TestScatterTasks:
    """One task on the persistent pool, as the server dispatches it."""

    def test_values_in_task_order_spend_absorbed(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard).activate():
            outcomes = [_dispatch(_square, i, width=3) for i in range(7)]
        # Each dispatch hands back its own task's value, and each
        # worker's tick is absorbed once into the parent guard.
        assert outcomes == [(i * i, None) for i in range(7)]
        assert guard.pivots == 7
        stats = parallel.stats()
        assert stats["pool_dispatches"] == 7
        assert stats["pool_cold_starts"] == 1
        assert stats["fallbacks"] == 0

    def test_no_headroom_falls_back_serial(self):
        guard = ExecutionGuard(deadline=0.05)
        guard.start()
        time.sleep(0.06)
        with QueryContext(guard=guard).activate():
            assert _dispatch(_square, 2) == (None, "no_headroom")
            # The caller then runs the task itself, under the parent
            # guard, so the deadline trips where it would in-process.
            with pytest.raises(DeadlineExceeded):
                guard.checkpoint("caller")
        stats = parallel.stats()
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"]["no_headroom"] == 1
        assert stats["pool_dispatches"] == 0

    def test_cancel_propagates_through_the_board(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        guard = ExecutionGuard()
        guard.cancel()
        with QueryContext(guard=guard).activate():
            assert _dispatch(_until_cancelled, 0.01) \
                == ("cancelled", None)
        assert guard.pivots == 0

    def test_salvages_lost_tasks_in_process(self, monkeypatch):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        monkeypatch.setattr(parallel, "_gather", _losing())
        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard).activate():
            value, reason = _dispatch(_square, 5)
            assert (value, reason) == (None, "worker_lost")
            # Nothing of the lost outcome was absorbed: the caller's
            # own run is the only tick.
            assert guard.pivots == 0
            assert _square(5) == 25
        assert guard.pivots == 1
        stats = parallel.stats()
        assert stats["pool_dispatches"] == 0
        assert stats["fallback_reasons"]["worker_lost"] == 1
        # A lost worker means a broken pool: the next dispatch starts
        # a fresh one.
        monkeypatch.undo()
        assert _dispatch(_identity, 1) == (1, None)
        assert parallel.stats()["pool_cold_starts"] == 2

    def test_unpicklable_task_fails_alone(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        unpicklable = lambda: None  # noqa: E731
        pool, _cold = get_pool(2)
        assert _dispatch(_identity, unpicklable) == (None, "worker_lost")
        # One future failed, not the pool: the same workers serve the
        # next dispatch.
        assert _dispatch(_identity, 3) == (3, None)
        stats = parallel.stats()
        assert stats["pool_dispatches"] == 1
        assert stats["fallbacks"] == 1
        assert get_pool(2) == (pool, False)

    def test_worker_context_carries_every_option(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        ctx = QueryContext(
            cache=None, plan_cache=None, params={"k": 7}, shards=4,
            use_optimizer=False, prefilter=False, indexing=False,
            numeric=False)
        with ctx.activate():
            expected = _report_context()
            report, _reason = _dispatch(_report_context)
        assert parallel.stats()["pool_dispatches"] == 1
        assert report == expected
        assert expected["cache_off"] and expected["plan_cache_off"]


class TestWarm:
    def test_warm_preforks_workers(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        answered = parallel.warm(2)
        assert answered >= 1
        assert parallel.stats()["pool_cold_starts"] == 1
        # A dispatch after warm-up reuses the warmed pool.
        _dispatch(_identity, 1)
        assert parallel.stats()["pool_cold_starts"] == 1
