"""ISSUE 5 — batched numeric kernels on a dense-join workload.

The acceptance benchmark: joining two relations of heavily overlapping
CST polytopes on constraint intersection must run at least 3x faster
with the numeric fast path (columnar packing + batched float LP
prefilter + exact-rational fallback) than through the same indexed
plan with numeric off — on a workload where the box index itself
prunes *less than half* of the pairs (``candidate_fraction >= 0.5``),
so the win is attributable to the kernel, not the index.  Results must
be byte-identical (``repr`` of every row, which renders the exact
canonical forms).  Numbers land in ``BENCH_numeric.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.constraints.cst_object import CSTObject
from repro.constraints.satisfiability import is_satisfiable
from repro.model.oid import LiteralOid
from repro.runtime import numeric_available
from repro.runtime.context import QueryContext
from repro.sqlc import index
from repro.sqlc.algebra import CstPredicate, IndexJoin, Scan
from repro.sqlc.engine import ExecutionStats, execute
from repro.sqlc.relation import ConstraintRelation
from repro.workloads.random_constraints import (
    make_variables,
    overlapping_polytopes,
)

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_numeric.json"

N_LEFT = 36
N_RIGHT = 36
DIMENSION = 2
EXTRA_ATOMS = 8
SPREAD = 100
SIZE = 80
ROUNDS = 3


def _sat_intersection(a, b):
    return is_satisfiable(a.cst.constraint.conjoin(b.cst.constraint))


def _conjoined(a, b):
    return a.cst.constraint.conjoin(b.cst.constraint)


def _predicate():
    return CstPredicate(
        ("e", "f"), _sat_intersection, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)),
        _conjoined)


def _catalog():
    vars_ = make_variables(DIMENSION)
    lefts = overlapping_polytopes(N_LEFT, DIMENSION, EXTRA_ATOMS,
                                  seed=21, spread=SPREAD, size=SIZE)
    rights = overlapping_polytopes(N_RIGHT, DIMENSION, EXTRA_ATOMS,
                                   seed=23, spread=SPREAD, size=SIZE)
    left = ConstraintRelation("L", ("lid", "e"), [
        (LiteralOid(i), CSTObject(vars_, c))
        for i, c in enumerate(lefts)])
    right = ConstraintRelation("R", ("rid", "f"), [
        (LiteralOid(i), CSTObject(vars_, c))
        for i, c in enumerate(rights)])
    return {"L": left, "R": right}


def _plan():
    return IndexJoin(Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
                     "e", "f", index.cst_cell_box, index.cst_cell_box,
                     _predicate())


def _median_time(fn) -> tuple[float, object]:
    samples, result = [], None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def _rows(relation) -> list:
    return [tuple(map(repr, row)) for row in relation]


@pytest.mark.skipif(not numeric_available(),
                    reason="numeric fast path needs numpy")
def test_numeric_kernel_speedup_and_equivalence():
    catalog = _catalog()
    total_pairs = N_LEFT * N_RIGHT

    exact_stats = ExecutionStats()

    def run_exact():
        index.clear_index_cache()
        with QueryContext(cache=None, numeric=False).activate():
            return _rows(execute(_plan(), catalog,
                                 use_optimizer=False,
                                 stats=exact_stats))

    numeric_stats = ExecutionStats()

    def run_numeric():
        index.clear_index_cache()
        with QueryContext(cache=None, numeric=True).activate():
            return _rows(execute(_plan(), catalog,
                                 use_optimizer=False,
                                 stats=numeric_stats))

    t_exact, baseline = _median_time(run_exact)
    t_numeric, accelerated = _median_time(run_numeric)

    assert accelerated == baseline

    candidates = total_pairs - exact_stats.candidates_pruned
    candidate_fraction = candidates / total_pairs
    decided = numeric_stats.numeric_accepts + numeric_stats.numeric_rejects
    speedup = t_exact / t_numeric
    payload = {
        "experiment": "E18",
        "workload": {
            "left_rows": N_LEFT,
            "right_rows": N_RIGHT,
            "total_pairs": total_pairs,
            "dimension": DIMENSION,
            "extra_atoms_per_side": EXTRA_ATOMS,
            "spread": SPREAD,
            "box_size": SIZE,
            "result_rows": len(baseline),
        },
        "median_seconds_exact": round(t_exact, 4),
        "median_seconds_numeric": round(t_numeric, 4),
        "speedup_numeric": round(speedup, 2),
        "candidate_fraction": round(candidate_fraction, 4),
        "numeric_accepts": numeric_stats.numeric_accepts,
        "numeric_rejects": numeric_stats.numeric_rejects,
        "numeric_fallbacks": numeric_stats.numeric_fallbacks,
        "numeric_decided_fraction": round(
            decided / max(1, decided + numeric_stats.numeric_fallbacks),
            4),
        "exact_simplex_solves_baseline": exact_stats.simplex_solves,
        "exact_simplex_solves_numeric": numeric_stats.simplex_solves,
        "results_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert candidate_fraction >= 0.5, (
        f"box index pruned {1 - candidate_fraction:.1%} of this dense "
        f"workload; the kernel benchmark needs the exact phase to "
        f"dominate (see {RESULT_PATH})")
    assert speedup >= 3.0, (
        f"numeric-kernel speedup {speedup:.2f}x below the 3x "
        f"acceptance threshold (see {RESULT_PATH})")
