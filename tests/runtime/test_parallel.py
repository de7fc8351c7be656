"""Unit tests for the partitioned parallel evaluator."""

import pytest

from repro.constraints import bounds
from repro.constraints.terms import Variable
from repro.errors import PivotBudgetExceeded, QueryCancelled
from repro.runtime import parallel
from repro.runtime.context import QueryContext, current_context
from repro.runtime.faults import FaultPlan
from repro.runtime.guard import ExecutionGuard
from repro.runtime.parallel import (
    PARTITION_THRESHOLD,
    _chunk_bounds,
    filter_rows,
    should_partition,
)

ROWS = [(i,) for i in range(200)]


@pytest.fixture(autouse=True)
def _fresh_parallel_stats():
    parallel.reset_stats()
    yield


def _thirds(row):
    return row["a"] % 3 == 0


def _serial_filter(rows, predicate=_thirds):
    return [row for row in rows if predicate({"a": row[0]})]


class TestChunkBounds:
    def test_partitions_cover_and_balance(self):
        for n, chunks in [(200, 3), (64, 2), (7, 7), (65, 8)]:
            spans = _chunk_bounds(n, chunks)
            assert spans[0][0] == 0 and spans[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            sizes = [stop - start for start, stop in spans]
            assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_rows(self):
        spans = _chunk_bounds(3, 8)
        assert spans == [(0, 1), (1, 2), (2, 3)]


class TestGating:
    def test_parallelism_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QueryContext(parallelism=0)

    def test_serial_without_context(self):
        assert not should_partition(len(ROWS))
        assert filter_rows(("a",), ROWS, _thirds) == _serial_filter(ROWS)
        assert parallel.stats()["runs"] == 0

    def test_serial_below_threshold(self):
        small = ROWS[:PARTITION_THRESHOLD - 1]
        with QueryContext(parallelism=2).activate():
            assert not should_partition(len(small))
            assert filter_rows(("a",), small, _thirds) \
                == _serial_filter(small)
        assert parallel.stats()["runs"] == 0

    def test_fault_plan_forces_serial(self):
        guard = ExecutionGuard(faults=FaultPlan())
        with QueryContext(guard=guard, parallelism=2).activate():
            assert not should_partition(len(ROWS))
            assert filter_rows(("a",), ROWS, _thirds) \
                == _serial_filter(ROWS)
        assert parallel.stats()["runs"] == 0

    def test_nested_partitioning_suppressed(self):
        parallel._IN_WORKER = True
        try:
            with QueryContext(parallelism=2).activate():
                assert not should_partition(len(ROWS))
        finally:
            parallel._IN_WORKER = False


class TestParallelFilter:
    def test_matches_serial_in_order(self):
        with QueryContext(parallelism=3).activate():
            kept = filter_rows(("a",), ROWS, _thirds)
        assert kept == _serial_filter(ROWS)
        stats = parallel.stats()
        if stats["fallbacks"]:  # pool unavailable in this sandbox
            pytest.skip("process pool unavailable")
        assert stats["runs"] == 1
        assert stats["partitions"] == 3
        assert stats["max_workers"] == 3

    def test_guard_spend_absorbed(self):
        def ticking(row):
            current_context().guard.tick_pivots(1)
            return True

        guard = ExecutionGuard(max_pivots=10_000)
        with QueryContext(guard=guard, parallelism=2).activate():
            kept = filter_rows(("a",), ROWS, ticking)
        if parallel.stats()["fallbacks"]:
            pytest.skip("process pool unavailable")
        assert len(kept) == len(ROWS)
        assert guard.pivots == len(ROWS)
        assert guard.checkpoints >= 1  # the parallel-merge checkpoint

    def test_bounds_counters_absorbed(self):
        v = Variable("x")
        near = {v: (0, False, 1, False)}
        far = {v: (50, False, 60, False)}

        def boxing(row):
            return not bounds.boxes_disjoint(
                near, near if row["a"] % 2 else far)

        with QueryContext(parallelism=2).activate() as ctx:
            kept = filter_rows(("a",), ROWS, boxing)
        if parallel.stats()["fallbacks"]:
            pytest.skip("process pool unavailable")
        assert kept == [row for row in ROWS if row[0] % 2]
        assert ctx.stats.box_checks == len(ROWS)

    def test_worker_budget_trip_rebuilds_exception(self):
        def ticking(row):
            current_context().guard.tick_pivots(1)
            return True

        guard = ExecutionGuard(max_pivots=10)
        with QueryContext(guard=guard, parallelism=2).activate():
            with pytest.raises(PivotBudgetExceeded) as exc:
                filter_rows(("a",), ROWS, ticking)
        if parallel.stats()["fallbacks"]:
            pytest.skip("process pool unavailable")
        assert exc.value.budget == "pivots"
        assert guard.exhausted == "pivots"
        # Reconstruction must not double the diagnostics suffix.
        assert str(exc.value).count("[budget=") == 1

    def test_exhausted_parent_budget_falls_back_serial(self):
        guard = ExecutionGuard(max_pivots=5)
        guard.absorb_spend({"pivots": 5})  # no headroom left to split
        with QueryContext(guard=guard, parallelism=2).activate():
            kept = filter_rows(("a",), ROWS, _thirds)
        assert kept == _serial_filter(ROWS)
        stats = parallel.stats()
        assert stats["fallbacks"] == 1
        assert stats["runs"] == 0

    def test_cancellation_observed_at_merge(self):
        guard = ExecutionGuard()
        guard.cancel()
        with QueryContext(guard=guard, parallelism=2).activate():
            with pytest.raises(QueryCancelled):
                filter_rows(("a",), ROWS, _thirds)
        if parallel.stats()["fallbacks"]:
            pytest.skip("process pool unavailable")
        assert guard.exhausted == "cancellation"
