"""Property tests: a sharded plan ≡ the unsharded plan, byte for byte,
across random partitionings — including under degrade-to-partial
budgets, with the cache off, with the numeric prefilter off, and under
a FaultPlan.

Shard-pair probes spend no guard budget (only stats counters) and run
in the calling process; the merged candidate list sorts into the
global nested-loop order, and every unit of spend happens downstream
in the exact phase.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.faults import FaultPlan
from repro.runtime.guard import ExecutionGuard
from repro.sqlc import index
from repro.sqlc.engine import execute

from tests.sqlc.harness import (
    _catalogs,
    _plain_plan,
    _same_relation,
    _sharded_plan,
)

import pytest


@pytest.fixture(autouse=True)
def _fresh_state():
    index.clear_index_cache()
    yield


class TestShardParallelEquivalence:
    """Hypothesis sweep: whatever the partitioning, the sharded and
    the unsharded layouts agree byte for byte."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=7),
           partition_by=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_matches_unsharded(self, seed, shards, partition_by):
        plain, sharded = _catalogs(seed, shards, partition_by)
        baseline = execute(_plain_plan(), plain, use_optimizer=False)
        serial = execute(_sharded_plan(), sharded,
                         use_optimizer=False)
        _same_relation(baseline, serial)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_agreement_without_cache(self, seed, shards):
        plain, sharded = _catalogs(seed, shards, True)
        with QueryContext(cache=None).activate():
            baseline = execute(_plain_plan(), plain,
                               use_optimizer=False)
            sharded_run = execute(
                _sharded_plan(), sharded, use_optimizer=False,
                ctx=QueryContext(cache=None))
        _same_relation(baseline, sharded_run)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_agreement_with_numeric_off(self, seed, shards):
        plain, sharded = _catalogs(seed, shards, True)
        baseline = execute(_plain_plan(), plain, use_optimizer=False,
                           ctx=QueryContext(numeric=False))
        sharded_run = execute(_sharded_plan(), sharded,
                              use_optimizer=False,
                              ctx=QueryContext(numeric=False))
        _same_relation(baseline, sharded_run)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           shards=st.integers(min_value=2, max_value=4))
    @settings(max_examples=5, deadline=None)
    def test_degrade_to_partial_agreement(self, seed, shards):
        # A budget tight enough to trip mid-join: probes spend no
        # budget, so the sharded and the monolithic probe leave the
        # exact phase identical spend headroom — identical partial rows.
        plain, sharded = _catalogs(seed, shards, True)
        with QueryContext(cache=None).activate():
            baseline = execute(
                _plain_plan(), plain, use_optimizer=False,
                guard=ExecutionGuard(max_pivots=60,
                                     on_exhaustion="degrade"))
            sharded_run = execute(
                _sharded_plan(), sharded, use_optimizer=False,
                ctx=QueryContext(cache=None),
                guard=ExecutionGuard(max_pivots=60,
                                     on_exhaustion="degrade"))
        _same_relation(baseline, sharded_run)


class TestShardParallelGates:
    def test_fault_plan_keeps_probes_serial(self):
        plain, sharded = _catalogs(11, 3, True)
        faults_a = ExecutionGuard(faults=FaultPlan())
        faults_b = ExecutionGuard(faults=FaultPlan())
        baseline = execute(_plain_plan(), plain, use_optimizer=False,
                           guard=faults_a)
        stats = ExecutionStats()
        sharded_run = execute(_sharded_plan(), sharded,
                              use_optimizer=False, guard=faults_b,
                              stats=stats)
        _same_relation(baseline, sharded_run)
        assert stats.pool_dispatches == 0
