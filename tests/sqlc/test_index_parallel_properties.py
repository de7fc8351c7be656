"""Property tests: IndexJoin ≡ NaturalJoin and parallel ≡ serial on
random workloads, including under ``on_exhaustion="degrade"`` and with
the constraint cache disabled."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.cst_object import CSTObject
from repro.model.oid import LiteralOid
from repro.runtime.context import QueryContext
from repro.runtime.guard import ExecutionGuard
from repro.runtime import parallel
from repro.sqlc import index
from repro.sqlc.algebra import NaturalJoin, Scan, Select
from repro.sqlc.engine import ExecutionStats, execute
from repro.workloads.random_constraints import (
    make_variables,
    scattered_boxes,
)

import pytest

from tests.sqlc.harness import _plain_plan, _predicate, _same_relation


@pytest.fixture(autouse=True)
def _fresh_index_state():
    index.clear_index_cache()
    parallel.reset_stats()
    yield


def _catalog(seed, n_left=12, n_right=10, spread=40, size=12):
    vars_ = make_variables(1)
    lefts = scattered_boxes(n_left, seed=seed, spread=spread, size=size)
    rights = scattered_boxes(n_right, seed=seed + 7919,
                             spread=spread, size=size)
    from repro.sqlc.relation import ConstraintRelation
    left = ConstraintRelation("L", ("lid", "e"), [
        (LiteralOid(i), CSTObject(vars_, c))
        for i, c in enumerate(lefts)])
    right = ConstraintRelation("R", ("rid", "f"), [
        (LiteralOid(i), CSTObject(vars_, c))
        for i, c in enumerate(rights)])
    return {"L": left, "R": right}


def _nested_loop_plan():
    return Select(NaturalJoin(Scan("L", ("lid", "e")),
                              Scan("R", ("rid", "f"))),
                  _predicate())


class TestIndexJoinEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_index_join_matches_nested_loop(self, seed):
        catalog = _catalog(seed)
        baseline = execute(_nested_loop_plan(), catalog,
                           use_optimizer=False)
        indexed = execute(_plain_plan(), catalog,
                          use_optimizer=False)
        _same_relation(baseline, indexed)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_under_degrade_without_cache(self, seed):
        catalog = _catalog(seed)
        with QueryContext(cache=None).activate():
            baseline = execute(
                _nested_loop_plan(), catalog, use_optimizer=False,
                guard=ExecutionGuard(max_pivots=1_000_000,
                                     on_exhaustion="degrade"))
            indexed = execute(
                _plain_plan(), catalog, use_optimizer=False,
                guard=ExecutionGuard(max_pivots=1_000_000,
                                     on_exhaustion="degrade"))
        _same_relation(baseline, indexed)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_optimized_plan_matches_unoptimized(self, seed):
        catalog = _catalog(seed)
        plain = execute(_nested_loop_plan(), catalog,
                        use_optimizer=False)
        optimized = execute(_nested_loop_plan(), catalog)
        assert optimized.columns == plain.columns
        assert sorted(map(repr, optimized)) == sorted(map(repr, plain))


class TestParallelEquivalence:
    """Fork-backed runs are slow to spawn; a few fixed seeds keep the
    suite fast while still sweeping distinct workloads."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parallel_select_matches_serial(self, seed):
        # A dense-overlap workload so the exact phase has >= 64 rows.
        catalog = _catalog(seed, n_left=16, n_right=16,
                           spread=10, size=10)
        serial = execute(_plain_plan(), catalog,
                         use_optimizer=False)
        before = parallel.stats()
        with QueryContext(parallelism=2).activate():
            fanned = execute(_plain_plan(), catalog,
                             use_optimizer=False)
        after = parallel.stats()
        _same_relation(serial, fanned)
        assert after["runs"] + after["fallbacks"] \
            > before["runs"] + before["fallbacks"]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_parallel_under_degrade_without_cache(self, seed):
        catalog = _catalog(seed, n_left=16, n_right=16,
                           spread=10, size=10)
        with QueryContext(cache=None).activate():
            serial = execute(
                _plain_plan(), catalog, use_optimizer=False,
                guard=ExecutionGuard(max_pivots=1_000_000,
                                     on_exhaustion="degrade"))
            with QueryContext(cache=None, parallelism=2).activate():
                fanned = execute(
                    _plain_plan(), catalog, use_optimizer=False,
                    guard=ExecutionGuard(max_pivots=1_000_000,
                                         on_exhaustion="degrade"))
        _same_relation(serial, fanned)

    def test_degrade_trip_is_equivalent(self):
        """When the budget genuinely trips, both serial and parallel
        degrade to the same empty relation."""
        catalog = _catalog(5, n_left=16, n_right=16,
                           spread=10, size=10)
        with QueryContext(cache=None).activate():
            serial_stats = ExecutionStats()
            serial = execute(
                _plain_plan(), catalog, use_optimizer=False,
                stats=serial_stats,
                guard=ExecutionGuard(max_pivots=3,
                                     on_exhaustion="degrade"))
            parallel_stats = ExecutionStats()
            with QueryContext(cache=None, parallelism=2).activate():
                fanned = execute(
                    _plain_plan(), catalog, use_optimizer=False,
                    stats=parallel_stats,
                    guard=ExecutionGuard(max_pivots=3,
                                         on_exhaustion="degrade"))
        assert len(serial) == len(fanned) == 0
        assert serial.columns == fanned.columns
        assert serial_stats.exhausted == "pivots"
        assert parallel_stats.exhausted == "pivots"

    def test_parallel_stats_surface(self):
        catalog = _catalog(6, n_left=16, n_right=16,
                           spread=10, size=10)
        stats = ExecutionStats()
        with QueryContext(parallelism=2).activate():
            execute(_plain_plan(), catalog, use_optimizer=False,
                    stats=stats)
        if parallel.stats()["runs"]:
            assert stats.partitions >= 2
            assert stats.workers == 2
        else:  # pool unavailable: fell back serially, still correct
            assert stats.partitions == 0
