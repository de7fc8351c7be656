"""ISSUE 8 — sharded scatter-gather execution benchmark.

Two scenarios land in ``BENCH_shard.json`` at the repository root:

* **scattered** (the acceptance workload): two relations of 50k small
  boxes each (130k rows total after mutation bursts) scattered over a
  wide 1-D domain, joined on constraint intersection.  Each timed
  round first applies a 2x5k-row mutation burst, then runs the join.
  The unsharded baseline pays copy-on-extend index maintenance and a
  full endpoint re-sort inside the query; the sharded relation paid
  per-shard maintenance at ingest (timed separately and reported as
  ``maintenance_seconds_per_burst``), prunes most shard pairs by
  envelope disjointness, and probes the survivors through per-shard
  indexes small enough for the vectorized overlap path.  Acceptance:
  >= 3x median speedup, byte-identical rows, nonzero
  ``shard_pairs_pruned``.
* **dense**: heavily overlapping boxes where envelopes cannot prune —
  recorded for honesty (no speedup threshold; the interesting claim is
  that results stay identical when pruning never fires).
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
    Scan,
    ShardedIndexJoin,
)
from repro.sqlc.engine import execute
from repro.sqlc.relation import ConstraintRelation
from repro.sqlc.shard import ShardedConstraintRelation
from repro.workloads.random_constraints import (
    make_variables,
    scattered_boxes,
)

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_shard.json"

# Scattered (acceptance) workload: 100k base rows + 3 bursts of 10k.
N_SIDE = 50_000
SHARDS = 64
SPREAD = 30_000_000
SIZE = 20
BURST = 5_000
ROUNDS = 3

# Dense workload: overlapping boxes, envelopes cannot prune.
N_DENSE = 1_000
DENSE_SHARDS = 8
DENSE_SPREAD = 8_000
DENSE_SIZE = 40

_VARS = make_variables(1)


def _sat_intersection(a, b):
    # Conjoin + satisfiability, not CSTObject.intersect: the exact
    # phase needs a yes/no, and it is identical work on both sides of
    # every comparison here.
    return is_satisfiable(a.cst.constraint.conjoin(b.cst.constraint))


def _predicate():
    return CstPredicate(
        ("e", "f"), _sat_intersection, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)))


def _box_rows(count, seed, spread, size, base=0):
    # canonicalize=False: scattered_boxes emits already-simple bound
    # atoms, and both sides of every comparison share the objects, so
    # canonicalization would only add identical constant cost.
    return [(LiteralOid(base + i),
             CSTObject(_VARS, c, canonicalize=False))
            for i, c in enumerate(
                scattered_boxes(count, seed=seed, spread=spread,
                                size=size))]


def _plain_plan():
    return IndexJoin(Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
                     "e", "f", index.cst_cell_box, index.cst_cell_box,
                     _predicate())


def _sharded_plan():
    return ShardedIndexJoin(
        Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
        "e", "f", index.cst_cell_box, index.cst_cell_box, _predicate())


def _rows(relation) -> list:
    return [tuple(map(repr, row)) for row in relation]


def _median(samples) -> float:
    return statistics.median(samples)


def _record(section: str, payload: dict) -> None:
    """Merge one scenario's numbers into BENCH_shard.json."""
    existing = {"experiment": "E21"}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text())
        except ValueError:
            pass
    existing["experiment"] = "E21"
    existing[section] = payload
    RESULT_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_scattered_burst_join_speedup():
    left_rows = _box_rows(N_SIDE, seed=11, spread=SPREAD, size=SIZE)
    right_rows = _box_rows(N_SIDE, seed=13, spread=SPREAD, size=SIZE)
    bursts = [
        (_box_rows(BURST, seed=100 + r, spread=SPREAD, size=SIZE,
                   base=N_SIDE + r * BURST),
         _box_rows(BURST, seed=200 + r, spread=SPREAD, size=SIZE,
                   base=N_SIDE + r * BURST))
        for r in range(ROUNDS)]

    plain = {
        "L": ConstraintRelation("L", ("lid", "e"), left_rows),
        "R": ConstraintRelation("R", ("rid", "f"), right_rows),
    }
    start = time.perf_counter()
    sl = ShardedConstraintRelation("L", ("lid", "e"), left_rows,
                                   shards=SHARDS, partition_by="e")
    sr = ShardedConstraintRelation("R", ("rid", "f"), right_rows,
                                   shards=SHARDS, partition_by="f")
    sl.register_index("e", index.cst_cell_box)
    sr.register_index("f", index.cst_cell_box)
    ingest_seconds = time.perf_counter() - start
    sharded = {"L": sl, "R": sr}

    index.clear_index_cache()
    with QueryContext(cache=None).activate():
        # Warm-up: build both sides' indexes once; every timed round
        # then measures incremental maintenance, not a cold build.
        baseline = _rows(execute(_plain_plan(), plain,
                                 use_optimizer=False,
                                 ctx=QueryContext()))
        warm = _rows(execute(_sharded_plan(), sharded,
                             use_optimizer=False, ctx=QueryContext()))
        assert warm == baseline

        unsharded_times, sharded_times, maintenance_times = [], [], []
        pruned = probed = 0
        result_rows = 0
        for left_burst, right_burst in bursts:
            plain["L"].add_rows(left_burst)
            plain["R"].add_rows(right_burst)
            start = time.perf_counter()
            sl.add_rows(left_burst)
            sr.add_rows(right_burst)
            maintenance_times.append(time.perf_counter() - start)

            start = time.perf_counter()
            base = _rows(execute(_plain_plan(), plain,
                                 use_optimizer=False,
                                 ctx=QueryContext()))
            unsharded_times.append(time.perf_counter() - start)

            ctx = QueryContext()
            start = time.perf_counter()
            result = _rows(execute(_sharded_plan(), sharded,
                                   use_optimizer=False, ctx=ctx))
            sharded_times.append(time.perf_counter() - start)

            assert result == base
            pruned = ctx.stats.shard_pairs_pruned
            probed = ctx.stats.shard_pairs_probed
            result_rows = len(result)

    t_unsharded = _median(unsharded_times)
    t_sharded = _median(sharded_times)
    speedup = t_unsharded / t_sharded
    _record("scattered", {
        "workload": {
            "left_rows": len(list(plain["L"])),
            "right_rows": len(list(plain["R"])),
            "shards": SHARDS,
            "spread": SPREAD,
            "box_size": SIZE,
            "burst_rows_per_round": 2 * BURST,
            "rounds": ROUNDS,
            "result_rows": result_rows,
        },
        "ingest_seconds_sharded": round(ingest_seconds, 4),
        "maintenance_seconds_per_burst": round(
            _median(maintenance_times), 4),
        "median_seconds_unsharded": round(t_unsharded, 4),
        "median_seconds_sharded": round(t_sharded, 4),
        "speedup_sharded": round(speedup, 2),
        "shard_pairs_total": SHARDS * SHARDS,
        "shard_pairs_pruned": pruned,
        "shard_pairs_probed": probed,
        "results_identical": True,
    })

    assert speedup >= 3.0, (
        f"sharded scatter-gather speedup {speedup:.2f}x below the 3x "
        f"acceptance threshold (see {RESULT_PATH})")
    assert pruned > 0, "envelope pruning never fired on the scattered workload"


def test_dense_join_stays_identical():
    left_rows = _box_rows(N_DENSE, seed=31, spread=DENSE_SPREAD,
                          size=DENSE_SIZE)
    right_rows = _box_rows(N_DENSE, seed=37, spread=DENSE_SPREAD,
                           size=DENSE_SIZE)
    plain = {
        "L": ConstraintRelation("L", ("lid", "e"), left_rows),
        "R": ConstraintRelation("R", ("rid", "f"), right_rows),
    }
    sharded = {
        "L": ShardedConstraintRelation("L", ("lid", "e"), left_rows,
                                       shards=DENSE_SHARDS,
                                       partition_by="e"),
        "R": ShardedConstraintRelation("R", ("rid", "f"), right_rows,
                                       shards=DENSE_SHARDS,
                                       partition_by="f"),
    }

    unsharded_times, sharded_times = [], []
    pruned = probed = 0
    baseline = result = None
    with QueryContext(cache=None).activate():
        for _ in range(ROUNDS):
            index.clear_index_cache()
            start = time.perf_counter()
            baseline = _rows(execute(_plain_plan(), plain,
                                     use_optimizer=False,
                                     ctx=QueryContext()))
            unsharded_times.append(time.perf_counter() - start)

            index.clear_index_cache()
            ctx = QueryContext()
            start = time.perf_counter()
            result = _rows(execute(_sharded_plan(), sharded,
                                   use_optimizer=False, ctx=ctx))
            sharded_times.append(time.perf_counter() - start)
            pruned = ctx.stats.shard_pairs_pruned
            probed = ctx.stats.shard_pairs_probed

    assert result == baseline
    t_unsharded = _median(unsharded_times)
    t_sharded = _median(sharded_times)
    _record("dense", {
        "workload": {
            "left_rows": N_DENSE,
            "right_rows": N_DENSE,
            "shards": DENSE_SHARDS,
            "spread": DENSE_SPREAD,
            "box_size": DENSE_SIZE,
            "result_rows": len(baseline),
        },
        "median_seconds_unsharded": round(t_unsharded, 4),
        "median_seconds_sharded": round(t_sharded, 4),
        "speedup_sharded": round(t_unsharded / t_sharded, 2),
        "shard_pairs_pruned": pruned,
        "shard_pairs_probed": probed,
        "results_identical": True,
    })
