"""ISSUE 3 — box-index join acceleration on a sparse-join workload.

The acceptance benchmark: joining two relations of small scattered CST
boxes on constraint intersection must run at least 3x faster through
the box index (sort+sweep candidate generation, then exact simplex
intersection on the survivors) than through the nested-loop
Select-over-cross-join, with zero result differences and fewer than
half of all |R|x|S| pairs surviving to the exact phase.  The
indexed+parallel configuration is *recorded* but carries no speedup
threshold — CI runners (and this container) may expose a single core,
where partitioned execution cannot win wall-clock.  Numbers land in
``BENCH_index.json`` at the repository root.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.constraints.cst_object import CSTObject
from repro.constraints.satisfiability import is_satisfiable
from repro.model.oid import LiteralOid
from repro.runtime.context import QueryContext
from repro.sqlc import index
from repro.sqlc.algebra import (
    CstPredicate,
    IndexJoin,
    NaturalJoin,
    Scan,
    Select,
)
from repro.sqlc.engine import ExecutionStats, execute
from repro.sqlc.relation import ConstraintRelation
from repro.workloads.random_constraints import (
    make_variables,
    scattered_boxes,
)

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_index.json"

N_LEFT = 100
N_RIGHT = 100
SPREAD = 2000
SIZE = 5
ROUNDS = 3


def _sat_intersection(a, b):
    # Conjoin + satisfiability, not CSTObject.intersect: the join
    # predicate only needs a yes/no, and skipping the intersection's
    # canonicalization keeps the exact phase proportional to the
    # simplex work the index actually saves.
    return is_satisfiable(a.cst.constraint.conjoin(b.cst.constraint))


def _predicate():
    return CstPredicate(
        ("e", "f"), _sat_intersection, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)))


def _catalog():
    vars_ = make_variables(1)
    lefts = scattered_boxes(N_LEFT, seed=11, spread=SPREAD, size=SIZE)
    rights = scattered_boxes(N_RIGHT, seed=13, spread=SPREAD, size=SIZE)
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


def _index_join_plan():
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


def test_index_join_speedup_and_equivalence():
    catalog = _catalog()
    total_pairs = N_LEFT * N_RIGHT

    def run_nested():
        with QueryContext(cache=None).activate():
            return _rows(execute(_nested_loop_plan(), catalog,
                                 use_optimizer=False))

    indexed_stats = ExecutionStats()

    def run_indexed():
        # Rebuild the index every round: build cost is part of the
        # honest indexed timing.
        index.clear_index_cache()
        with QueryContext(cache=None).activate():
            return _rows(execute(_index_join_plan(), catalog,
                                 use_optimizer=False,
                                 stats=indexed_stats))

    parallel_stats = ExecutionStats()

    def run_parallel():
        index.clear_index_cache()
        with QueryContext(cache=None, parallelism=2).activate():
            return _rows(execute(_index_join_plan(), catalog,
                                 use_optimizer=False,
                                 stats=parallel_stats))

    t_nested, baseline = _median_time(run_nested)
    t_indexed, indexed = _median_time(run_indexed)
    t_parallel, fanned = _median_time(run_parallel)

    assert indexed == baseline
    assert fanned == baseline

    candidates = total_pairs - indexed_stats.candidates_pruned
    candidate_fraction = candidates / total_pairs
    speedup_indexed = t_nested / t_indexed
    payload = {
        "experiment": "E17",
        "workload": {
            "left_rows": N_LEFT,
            "right_rows": N_RIGHT,
            "total_pairs": total_pairs,
            "spread": SPREAD,
            "box_size": SIZE,
            "result_rows": len(baseline),
        },
        "median_seconds_nested_loop": round(t_nested, 4),
        "median_seconds_indexed": round(t_indexed, 4),
        "median_seconds_indexed_parallel": round(t_parallel, 4),
        "speedup_indexed": round(speedup_indexed, 2),
        "speedup_indexed_parallel": round(t_nested / t_parallel, 2),
        "index_probes": indexed_stats.index_probes,
        "candidates": candidates,
        "candidates_pruned": indexed_stats.candidates_pruned,
        "candidate_fraction": round(candidate_fraction, 4),
        "parallel_partitions": parallel_stats.partitions,
        "parallel_workers": parallel_stats.workers,
        "results_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup_indexed >= 3.0, (
        f"box-index speedup {speedup_indexed:.2f}x below the 3x "
        f"acceptance threshold (see {RESULT_PATH})")
    assert candidate_fraction < 0.5, (
        f"exact phase saw {candidate_fraction:.1%} of all pairs; the "
        f"index should prune more than half on this sparse workload")
