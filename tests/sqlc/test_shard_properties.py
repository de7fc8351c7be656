"""Property tests: sharded scatter-gather execution ≡ unsharded, byte
for byte, across random partitionings — including under degraded
budgets, with the cache off, with the numeric prefilter off, under a
FaultPlan, and after a store save/restore round-trip."""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.faults import FaultPlan
from repro.runtime.guard import ExecutionGuard
from repro.sqlc import index
from repro.sqlc.engine import execute
from repro.sqlc.shard import ShardedConstraintRelation

from tests.sqlc.harness import (
    _catalogs,
    _plain_plan,
    _rows,
    _same_relation,
    _sharded_plan,
)

import pytest


@pytest.fixture(autouse=True)
def _fresh_index_state():
    index.clear_index_cache()
    yield


class TestShardedEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=7),
           partition_by=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_unsharded(self, seed, shards, partition_by):
        plain, sharded = _catalogs(seed, shards, partition_by)
        baseline = execute(_plain_plan(), plain, use_optimizer=False)
        result = execute(_sharded_plan(), sharded,
                         use_optimizer=False)
        _same_relation(baseline, result)
        # ... and after a burst into both sides, when the indexes
        # both joins just built are brought current by extension.
        for catalog in (plain, sharded):
            catalog["L"].add_rows(_rows(5, seed + 1, 60))
            catalog["R"].add_rows(_rows(4, seed + 2, 60))
        _same_relation(
            execute(_plain_plan(), plain, use_optimizer=False),
            execute(_sharded_plan(), sharded, use_optimizer=False))

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_matches_without_cache(self, seed, shards):
        plain, sharded = _catalogs(seed, shards, True)
        with QueryContext(cache=None).activate():
            baseline = execute(_plain_plan(), plain,
                               use_optimizer=False)
            result = execute(_sharded_plan(), sharded,
                             use_optimizer=False)
        _same_relation(baseline, result)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_matches_with_numeric_off(self, seed, shards):
        plain, sharded = _catalogs(seed, shards, True)
        baseline = execute(_plain_plan(), plain, use_optimizer=False,
                           ctx=QueryContext(numeric=False))
        result = execute(_sharded_plan(), sharded,
                         use_optimizer=False,
                         ctx=QueryContext(numeric=False))
        _same_relation(baseline, result)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_matches_under_degrade(self, seed, shards):
        plain, sharded = _catalogs(seed, shards, True)
        baseline = execute(
            _plain_plan(), plain, use_optimizer=False,
            guard=ExecutionGuard(max_pivots=1_000_000,
                                 on_exhaustion="degrade"))
        result = execute(
            _sharded_plan(), sharded, use_optimizer=False,
            guard=ExecutionGuard(max_pivots=1_000_000,
                                 on_exhaustion="degrade"))
        _same_relation(baseline, result)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=4))
    @settings(max_examples=6, deadline=None)
    def test_matches_degrade_to_partial(self, seed, shards):
        # A budget tight enough to actually trip mid-join: the
        # degraded partial result must still be identical, because
        # candidate order (hence budget spend order) is identical.
        plain, sharded = _catalogs(seed, shards, True)
        with QueryContext(cache=None).activate():
            baseline = execute(
                _plain_plan(), plain, use_optimizer=False,
                guard=ExecutionGuard(max_pivots=60,
                                     on_exhaustion="degrade"))
            result = execute(
                _sharded_plan(), sharded, use_optimizer=False,
                guard=ExecutionGuard(max_pivots=60,
                                     on_exhaustion="degrade"))
        _same_relation(baseline, result)

    def test_matches_under_a_fault_plan(self):
        # A plan changes nothing about the join: both layouts run in
        # the calling process and agree.
        plain, sharded = _catalogs(11, 3, True)
        baseline = execute(_plain_plan(), plain, use_optimizer=False,
                           guard=ExecutionGuard(faults=FaultPlan()))
        stats = ExecutionStats()
        result = execute(_sharded_plan(), sharded, use_optimizer=False,
                         guard=ExecutionGuard(faults=FaultPlan()),
                         stats=stats)
        _same_relation(baseline, result)
        assert stats.pool_dispatches == 0

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=4))
    @settings(max_examples=6, deadline=None)
    def test_matches_after_store_round_trip(self, seed, shards):
        from repro.storage.store import Store
        plain, sharded = _catalogs(seed, shards, True)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s")
            with Store.create(path) as store:
                store.add_relation(sharded["L"])
                store.add_relation(sharded["R"])
            with Store.open(path) as store:
                restored = {"L": store.relation("L"),
                            "R": store.relation("R")}
                assert isinstance(restored["L"],
                                  ShardedConstraintRelation)
                baseline = execute(_plain_plan(), plain,
                                   use_optimizer=False)
                result = execute(_sharded_plan(), restored,
                                 use_optimizer=False)
                _same_relation(baseline, result)
