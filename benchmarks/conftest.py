"""Shared fixtures for the benchmark suite.

Workload construction is excluded from timed regions: generators are
cached per (kind, size) so repeated benchmark rounds reuse the same
database objects.
"""

from __future__ import annotations

import pytest

from repro.constraints.cst_object import CSTObject
from repro.model.database import Database
from repro.model.schema import AttributeDef, CSTSpec, Schema
from repro.workloads import manufacturing, mda, office
from repro.workloads.random_constraints import (
    make_variables,
    scattered_boxes,
)

_CACHE: dict = {}

#: The two-class join E7 asks from text: which left and right boxes
#: meet.
SCATTERED_JOIN_QUERY = """
    SELECT A, B FROM Lft A, Rgt B
    WHERE A.extent[E] and B.extent[F] and SAT(E(x) and F(x))
"""


def scattered_join_database(n: int, seed: int = 0) -> Database:
    """Classes ``Lft`` and ``Rgt`` with ``n`` objects each, every one
    with a small 1-D box as its ``extent``.  The boxes scatter over a
    range that grows with ``n``, so the density — and with it the
    number of overlapping pairs per object — stays the same and the
    answer grows linearly: what is left to grow faster is the
    evaluation strategy."""
    key = ("scattered", n, seed)
    if key not in _CACHE:
        schema = Schema()
        schema.ensure_cst_class(1)
        for class_name in ("Lft", "Rgt"):
            schema.define(class_name, attributes=[
                AttributeDef("extent", CSTSpec(["x"]))])
        db = Database(schema)
        variables = make_variables(1)
        for class_name, offset in (("Lft", 0), ("Rgt", 1)):
            boxes = scattered_boxes(n, seed=2 * seed + offset,
                                    spread=20 * n)
            for i, box in enumerate(boxes):
                db.add_object(f"{class_name.lower()}_{i}", class_name,
                              {"extent": CSTObject(variables, box)})
        _CACHE[key] = db
    return _CACHE[key]


def office_workload(n: int, seed: int = 0):
    key = ("office", n, seed)
    if key not in _CACHE:
        _CACHE[key] = office.generate(n, seed=seed)
    return _CACHE[key]


def mda_workload(goals: int, maneuvers: int, seed: int = 0):
    key = ("mda", goals, maneuvers, seed)
    if key not in _CACHE:
        _CACHE[key] = mda.generate(goals, maneuvers, seed=seed)
    return _CACHE[key]


def manufacturing_workload(products: int, orders: int, seed: int = 0):
    key = ("manufacturing", products, orders, seed)
    if key not in _CACHE:
        _CACHE[key] = manufacturing.generate(
            products, n_orders=orders, seed=seed)
    return _CACHE[key]


@pytest.fixture(scope="session")
def workloads():
    """Accessor bundle handed to benchmark functions."""
    return {
        "office": office_workload,
        "mda": mda_workload,
        "manufacturing": manufacturing_workload,
    }
