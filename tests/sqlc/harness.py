"""Shared plumbing for the join property suites: one box-overlap SAT
join over two relations of scattered 1-D boxes, as a plain
``IndexJoin`` and as a ``ShardedIndexJoin``, and the byte-level
comparison their results are held to."""

from __future__ import annotations

from repro.constraints.cst_object import CSTObject
from repro.model.oid import LiteralOid
from repro.sqlc import index
from repro.sqlc.algebra import (
    CstPredicate,
    IndexJoin,
    Scan,
    ShardedIndexJoin,
)
from repro.sqlc.relation import ConstraintRelation
from repro.sqlc.shard import ShardedConstraintRelation
from repro.workloads.random_constraints import (
    make_variables,
    scattered_boxes,
)

__all__ = ["_catalogs", "_plain_plan", "_predicate", "_rows",
           "_same_relation", "_sat_intersection", "_sharded_plan"]


def _sat_intersection(a, b):
    return a.cst.intersect(b.cst).is_satisfiable()


def _predicate():
    return CstPredicate(
        ("e", "f"), _sat_intersection, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)))


def _rows(count, seed, spread, size=10):
    vars_ = make_variables(1)
    return [(LiteralOid(i), CSTObject(vars_, c))
            for i, c in enumerate(
                scattered_boxes(count, seed=seed, spread=spread,
                                size=size))]


def _catalogs(seed, shards, partition_by, n_left=14, n_right=12,
              spread=60):
    """(plain, sharded) catalog pair over identical row lists.
    ``partition_by`` toggles range vs round-robin partitioning."""
    left_rows = _rows(n_left, seed, spread)
    right_rows = _rows(n_right, seed + 7919, spread)
    plain = {
        "L": ConstraintRelation("L", ("lid", "e"), left_rows),
        "R": ConstraintRelation("R", ("rid", "f"), right_rows),
    }
    sharded = {
        "L": ShardedConstraintRelation(
            "L", ("lid", "e"), left_rows, shards=shards,
            partition_by="e" if partition_by else None),
        "R": ShardedConstraintRelation(
            "R", ("rid", "f"), right_rows, shards=shards,
            partition_by="f" if partition_by else None),
    }
    return plain, sharded


def _plain_plan():
    return IndexJoin(Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
                     "e", "f", index.cst_cell_box,
                     index.cst_cell_box, _predicate())


def _sharded_plan():
    return ShardedIndexJoin(
        Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
        "e", "f", index.cst_cell_box, index.cst_cell_box,
        _predicate())


def _same_relation(a, b):
    assert a.columns == b.columns
    assert [tuple(map(repr, row)) for row in a] \
        == [tuple(map(repr, row)) for row in b]
