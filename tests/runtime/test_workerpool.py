"""Unit tests for the one parallel region and its two transports:
every filter forks and inherits, picklable tasks go to the persistent
pool as the server's requests do (reuse, growth, recovery, budgets,
warm-up, the context a pool worker rebuilds), cancellation crosses the
board mid-flight, and whatever a region did not deliver is recomputed
exactly once."""

import threading
import time

import pytest

from repro.errors import PivotBudgetExceeded, QueryCancelled
from repro.runtime import parallel
from repro.runtime.context import QueryContext, current_context
from repro.runtime.guard import ExecutionGuard
from repro.runtime.parallel import (
    filter_rows,
    get_pool,
    shutdown_pool,
)

ROWS = [(i,) for i in range(200)]


@pytest.fixture(autouse=True)
def _fresh_pool_state():
    parallel.reset_stats()
    shutdown_pool()
    yield
    shutdown_pool()


def _thirds(row):
    return row["a"] % 3 == 0


def _ticking(row):
    current_context().guard.tick_pivots(1)
    return True


def _serial_filter(rows, predicate=_thirds):
    return [row for row in rows if predicate({"a": row[0]})]


def _skip_unless_parallel():
    if parallel.stats()["fallbacks"]:
        pytest.skip("process pool unavailable")


def _pool_region(fn, tasks):
    """``fn(*task)`` for every task on the persistent pool, values in
    task order: the region ``filter_rows`` runs, on the transport the
    server's ``dispatch`` uses."""
    ctx = current_context()
    return parallel._run_region(fn, tasks, ctx,
                                min(ctx.parallelism, len(tasks)))


def _pool_available() -> bool:
    """Probe once whether real pool dispatch works on this runner,
    then discard the pool and the counters the probe touched."""
    with QueryContext(parallelism=2).activate():
        _pool_region(_identity, [(0,), (1,)])
    available = not parallel.stats()["fallbacks"]
    shutdown_pool()
    parallel.reset_stats()
    return available


# Task functions are module-level: the pool transport pickles them.


def _identity(x):
    return x


def _square(x):
    current_context().guard.tick_pivots(1)
    return x * x


def _checkpointing(x):
    current_context().guard.checkpoint("scatter-test")
    return x


def _five_pivots(x):
    current_context().guard.tick_pivots(5)
    return x


def _report_context():
    ctx = current_context()
    return {"cache_off": ctx.cache is None,
            "plan_cache_off": ctx.plan_cache is None,
            "params": ctx.params, "shards": ctx.shards,
            "use_optimizer": ctx.use_optimizer,
            "prefilter": ctx.prefilter, "indexing": ctx.indexing,
            "numeric": ctx.numeric}


def _tasks(n):
    return [(i,) for i in range(n)]


class TestTransportSelection:
    """Filters never touch the persistent pool, whether or not their
    predicate would pickle."""

    def _assert_forked(self, predicate):
        with QueryContext(parallelism=3).activate():
            kept = filter_rows(("a",), ROWS, predicate)
        _skip_unless_parallel()
        assert kept == _serial_filter(ROWS)
        stats = parallel.stats()
        assert stats["runs"] == 1
        assert stats["partitions"] == 3
        assert stats["pool_dispatches"] == 0
        assert stats["pool_cold_starts"] == 0
        assert stats["scatters"] == 0

    def test_picklable_predicate_takes_the_fork_transport(self):
        self._assert_forked(_thirds)

    def test_closure_takes_the_fork_transport(self):
        bound = 3
        self._assert_forked(lambda row: row["a"] % bound == 0)


class TestWarmReuse:
    def test_second_dispatch_reuses_the_pool(self):
        with QueryContext(parallelism=3).activate():
            _pool_region(_identity, _tasks(3))
            _skip_unless_parallel()
            _pool_region(_identity, _tasks(3))
        stats = parallel.stats()
        assert stats["pool_cold_starts"] == 1
        assert stats["pool_dispatches"] == 6

    def test_growing_replaces_the_pool(self):
        with QueryContext(parallelism=2).activate():
            _pool_region(_identity, _tasks(4))
        _skip_unless_parallel()
        with QueryContext(parallelism=4).activate():
            _pool_region(_identity, _tasks(4))
        assert parallel.stats()["pool_cold_starts"] == 2

    def test_smaller_request_keeps_the_bigger_pool(self):
        pool, cold = get_pool(4)
        assert cold
        again, cold = get_pool(2)
        assert again is pool and not cold

    def test_context_stats_record_warm_and_cold(self):
        ctx = QueryContext(parallelism=3)
        with ctx.activate():
            _pool_region(_identity, _tasks(3))
            _skip_unless_parallel()
            _pool_region(_identity, _tasks(3))
        assert ctx.stats.pool_cold_starts == 1
        assert ctx.stats.pool_dispatches == 6


class TestPoolDeath:
    def test_dead_pool_falls_back_and_recovers(self):
        with QueryContext(parallelism=2).activate():
            assert _pool_region(_identity, _tasks(4)) == [0, 1, 2, 3]
            _skip_unless_parallel()
            # Kill every warm worker behind the pool's back.
            pool, cold = get_pool(2)
            assert not cold
            for proc in list(pool._executor._processes.values()):
                proc.terminate()
                proc.join()
            # The dead pool is detected (at submit or at gather) and
            # discarded, the tasks recomputed in-process — same values.
            assert _pool_region(_identity, _tasks(4)) == [0, 1, 2, 3]
            stats = parallel.stats()
            assert stats["fallbacks"] == 1
            reasons = stats["fallback_reasons"]
            assert reasons["worker_lost"] \
                + reasons["pool_start_failed"] == 1
            # The next dispatch cold-starts a fresh pool.
            assert _pool_region(_identity, _tasks(4)) == [0, 1, 2, 3]
        stats = parallel.stats()
        assert stats["fallbacks"] == 1
        assert stats["pool_cold_starts"] == 2


class TestPoolBudgets:
    def test_guard_spend_absorbed_through_the_pool(self):
        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard, parallelism=2).activate():
            values = _pool_region(_square, _tasks(6))
        _skip_unless_parallel()
        assert values == [i * i for i in range(6)]
        assert parallel.stats()["pool_dispatches"] == 6
        assert guard.pivots == 6
        assert guard.checkpoints >= 1  # the parallel-merge checkpoint

    def test_budget_trip_rebuilds_exception(self):
        guard = ExecutionGuard(max_pivots=6)
        with QueryContext(guard=guard, parallelism=2).activate():
            # Pro-rated to 3 pivots a task; each spends 5.
            with pytest.raises(PivotBudgetExceeded) as exc:
                _pool_region(_five_pivots, _tasks(2))
        _skip_unless_parallel()
        assert parallel.stats()["pool_dispatches"] == 2
        assert exc.value.budget == "pivots"
        assert guard.exhausted == "pivots"
        assert str(exc.value).count("[budget=") == 1

    def test_exhausted_parent_budget_falls_back_serial(self):
        guard = ExecutionGuard(max_pivots=5)
        guard.absorb_spend({"pivots": 5})
        with QueryContext(guard=guard, parallelism=2).activate():
            kept = filter_rows(("a",), ROWS, _thirds)
        assert kept == _serial_filter(ROWS)
        stats = parallel.stats()
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"]["no_headroom"] == 1
        assert stats["runs"] == 0


def _losing(*lost_positions, total=False):
    """A ``_gather`` that delivers everything but the given positions
    (as if those workers died mid-run); ``total`` delivers nothing."""
    real_gather = parallel._gather

    def gather(pending, guard, slot):
        results, _lost = real_gather(pending, guard, slot)
        if total:
            return [None] * len(results), True
        for position in lost_positions:
            results[position] = None
        return results, True
    return gather


class TestSalvage:
    """An undelivered chunk or task is recomputed once, in-process,
    under the parent guard, and delivered ones are absorbed once: one
    tick per row (or task) on the guard either way."""

    def test_partial_death_absorbs_each_chunk_once(self, monkeypatch):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        monkeypatch.setattr(parallel, "_gather", _losing(1))
        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard, parallelism=3).activate():
            kept = filter_rows(("a",), ROWS, _ticking)
        assert kept == ROWS
        assert guard.pivots == len(ROWS)
        stats = parallel.stats()
        assert stats["runs"] == 1
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"]["worker_lost"] == 1

    def test_total_death_absorbs_nothing_then_recovers(
            self, monkeypatch):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard, parallelism=3).activate():
            with monkeypatch.context() as patched:
                patched.setattr(parallel, "_gather",
                                _losing(total=True))
                kept = filter_rows(("a",), ROWS, _ticking)
            # Nothing was absorbed, everything recomputed: still one
            # tick per row.
            assert kept == ROWS
            assert guard.pivots == len(ROWS)
            assert parallel.stats()["fallbacks"] == 1
            # The next region forks afresh and is delivered whole.
            assert filter_rows(("a",), ROWS, _ticking) == ROWS
        assert guard.pivots == 2 * len(ROWS)
        assert parallel.stats()["fallbacks"] == 1


class TestMidFlightCancel:
    def test_cancel_stops_closure_workers_at_their_next_checkpoint(
            self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        pause = 0.01

        def slow(row):  # a closure: what a translated query filters by
            guard = current_context().guard
            guard.checkpoint("slow-test")
            guard.tick_pivots(1)
            time.sleep(pause)
            return True

        rows = ROWS * 2  # ~2 s a worker when nobody cancels
        guard = ExecutionGuard()
        timer = threading.Timer(0.2, guard.cancel)
        started = time.perf_counter()
        timer.start()
        try:
            with QueryContext(guard=guard, parallelism=2).activate():
                with pytest.raises(QueryCancelled):
                    filter_rows(("a",), rows, slow)
        finally:
            timer.cancel()
        assert time.perf_counter() - started < 1.0
        assert guard.exhausted == "cancellation"
        # Each worker's spend came back exactly once: it ticked once
        # per row it finished and checkpointed once more to see the
        # cancel.
        assert 0 < guard.pivots < len(rows)
        assert guard.checkpoints == guard.pivots + 2


class TestScatterTasks:
    """``_run_region`` on the persistent-pool transport."""

    def test_values_in_task_order_spend_absorbed(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard, parallelism=3).activate():
            values = _pool_region(_square, _tasks(7))
        assert values == [i * i for i in range(7)]
        assert guard.pivots == 7
        stats = parallel.stats()
        assert stats["scatters"] == 1
        assert stats["pool_dispatches"] == 7
        assert stats["max_workers"] == 3

    def test_no_headroom_falls_back_serial(self):
        guard = ExecutionGuard(max_pivots=5)
        guard.absorb_spend({"pivots": 5})
        with QueryContext(guard=guard, parallelism=3).activate():
            # The serial fallback runs under the parent guard, so the
            # budget trips exactly where a serial run would trip it.
            with pytest.raises(PivotBudgetExceeded):
                _pool_region(_square, _tasks(4))
        stats = parallel.stats()
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"]["no_headroom"] == 1
        assert stats["scatters"] == 0

    def test_cancel_propagates_through_the_board(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        guard = ExecutionGuard()
        guard.cancel()
        with QueryContext(guard=guard, parallelism=2).activate():
            with pytest.raises(QueryCancelled):
                _pool_region(_checkpointing, _tasks(4))

    def test_salvages_lost_tasks_in_process(self, monkeypatch):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        monkeypatch.setattr(parallel, "_gather", _losing(2))
        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard, parallelism=3).activate():
            values = _pool_region(_square, _tasks(5))
        assert values == [i * i for i in range(5)]
        # 4 absorbed worker ticks + 1 in-process re-run tick.
        assert guard.pivots == 5
        stats = parallel.stats()
        assert stats["pool_dispatches"] == 4
        assert stats["fallbacks"] == 1
        assert stats["fallback_reasons"]["worker_lost"] == 1

    def test_unpicklable_task_fails_alone(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        unpicklable = lambda: None  # noqa: E731
        tasks = [(1,), (unpicklable,), (3,)]
        pool, _cold = get_pool(2)
        with QueryContext(parallelism=2).activate():
            values = _pool_region(_identity, tasks)
            assert values == [1, unpicklable, 3]
            stats = parallel.stats()
            assert stats["pool_dispatches"] == 2
            assert stats["fallback_reasons"]["worker_lost"] == 1
            # One future failed, not the pool: the same workers serve
            # the next region.
            assert _pool_region(_identity, _tasks(3)) == [0, 1, 2]
        assert parallel.stats()["fallbacks"] == 1
        assert get_pool(2) == (pool, False)

    def test_worker_context_carries_every_option(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        ctx = QueryContext(
            cache=None, plan_cache=None, params={"k": 7}, shards=4,
            use_optimizer=False, prefilter=False, indexing=False,
            numeric=False, parallelism=2)
        with ctx.activate():
            expected = _report_context()
            reports = _pool_region(_report_context, [(), ()])
        assert parallel.stats()["pool_dispatches"] == 2
        assert reports == [expected, expected]
        assert expected["cache_off"] and expected["plan_cache_off"]


class TestWarm:
    def test_warm_preforks_workers(self):
        if not _pool_available():
            pytest.skip("process pool unavailable")
        answered = parallel.warm(2)
        assert answered >= 1
        assert parallel.stats()["pool_cold_starts"] == 1
        # A dispatch after warm-up reuses the warmed pool.
        with QueryContext(parallelism=2).activate():
            _pool_region(_identity, _tasks(2))
        assert parallel.stats()["pool_cold_starts"] == 1
