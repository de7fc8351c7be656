"""Property tests: IndexJoin ≡ NaturalJoin on random workloads,
including under ``on_exhaustion="degrade"`` and with the constraint
cache disabled."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.cst_object import CSTObject
from repro.model.oid import LiteralOid
from repro.runtime.context import QueryContext
from repro.runtime.guard import ExecutionGuard
from repro.sqlc import index
from repro.sqlc.algebra import NaturalJoin, Scan, Select
from repro.sqlc.engine import execute
from repro.workloads.random_constraints import (
    make_variables,
    scattered_boxes,
)

import pytest

from tests.sqlc.harness import _plain_plan, _predicate, _same_relation


@pytest.fixture(autouse=True)
def _fresh_index_state():
    index.clear_index_cache()
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
