"""ISSUE 10 / E23 — shard-parallel scatter-gather: concurrent vs
serial shard-pair probes on the 130k-row scattered workload.

The probe phase of a sharded join (envelope pruning + per-shard index
probes) spends no guard budget, so dispatching surviving shard pairs
to pool workers must return the byte-identical candidate list the
serial loop produces — that equivalence is asserted unconditionally.
The *speedup* is a multicore claim: per-pair dispatch pays a pickle of
both shard indexes, so on the 1–2 core runners this suite also runs on
the honest number is at or below 1x, and the acceptance assert is
gated on core count (the measurement is recorded either way).

Numbers land in ``BENCH_shardpar.json`` at the repository root:

* **probe_phase** — median seconds for serial vs concurrent probes of
  the same surviving shard pairs, identical pair lists asserted per
  round, ``shard_pairs_parallel`` / pool dispatch counters recorded.
* **full_join** — one end-to-end sharded join per mode, rows asserted
  byte-identical.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.constraints.cst_object import CSTObject
from repro.constraints.satisfiability import is_satisfiable
from repro.model.oid import LiteralOid
from repro.runtime import parallel
from repro.runtime.context import QueryContext
from repro.sqlc import index
from repro.sqlc.algebra import CstPredicate, Scan, ShardedIndexJoin
from repro.sqlc.engine import execute
from repro.sqlc.shard import ShardedConstraintRelation, scatter_pairs
from repro.workloads.random_constraints import (
    make_variables,
    scattered_boxes,
)

RESULT_PATH = Path(__file__).resolve().parents[1] \
    / "BENCH_shardpar.json"

# The E21 scattered workload: 100k base rows + 3 bursts of 10k.
N_SIDE = 50_000
SHARDS = 16
SPREAD = 30_000_000
SIZE = 20
BURST = 5_000
ROUNDS = 3
WORKERS = max(2, min(8, os.cpu_count() or 2))

_VARS = make_variables(1)


def _sat_intersection(a, b):
    return is_satisfiable(a.cst.constraint.conjoin(b.cst.constraint))


def _predicate():
    return CstPredicate(
        ("e", "f"), _sat_intersection, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)))


def _box_rows(count, seed, spread, size, base=0):
    return [(LiteralOid(base + i),
             CSTObject(_VARS, c, canonicalize=False))
            for i, c in enumerate(
                scattered_boxes(count, seed=seed, spread=spread,
                                size=size))]


def _sharded_plan():
    return ShardedIndexJoin(
        Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
        "e", "f", index.cst_cell_box, index.cst_cell_box,
        _predicate())


def _rows(relation) -> list:
    return [tuple(map(repr, row)) for row in relation]


def _median(samples) -> float:
    return statistics.median(samples)


def _record(section: str, payload: dict) -> None:
    existing = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text())
        except ValueError:
            pass
    existing["experiment"] = "E23"
    existing[section] = payload
    RESULT_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def _build_catalog():
    """The scattered 130k-row sharded catalog, bursts applied."""
    sl = ShardedConstraintRelation(
        "L", ("lid", "e"),
        _box_rows(N_SIDE, seed=11, spread=SPREAD, size=SIZE),
        shards=SHARDS, partition_by="e")
    sr = ShardedConstraintRelation(
        "R", ("rid", "f"),
        _box_rows(N_SIDE, seed=13, spread=SPREAD, size=SIZE),
        shards=SHARDS, partition_by="f")
    sl.register_index("e", index.cst_cell_box)
    sr.register_index("f", index.cst_cell_box)
    for r in range(ROUNDS):
        sl.add_rows(_box_rows(BURST, seed=100 + r, spread=SPREAD,
                              size=SIZE, base=N_SIDE + r * BURST))
        sr.add_rows(_box_rows(BURST, seed=200 + r, spread=SPREAD,
                              size=SIZE, base=N_SIDE + r * BURST))
    return sl, sr


def test_concurrent_probes_match_serial_and_record_speedup():
    sl, sr = _build_catalog()
    parallel.reset_stats()
    parallel.shutdown_pool()
    try:
        parallel.warm(WORKERS)  # keep the cold fork out of the timings

        serial_times, parallel_times = [], []
        probed = parallel_probed = 0
        pairs_serial = pairs_parallel = None
        for _ in range(ROUNDS):
            ctx = QueryContext()
            start = time.perf_counter()
            pairs_serial = scatter_pairs(
                sl, sr, "e", "f", index.cst_cell_box,
                index.cst_cell_box, ctx=ctx)
            serial_times.append(time.perf_counter() - start)
            assert ctx.stats.shard_pairs_parallel == 0
            probed = ctx.stats.shard_pairs_probed

            ctx = QueryContext(parallelism=WORKERS)
            start = time.perf_counter()
            pairs_parallel = scatter_pairs(
                sl, sr, "e", "f", index.cst_cell_box,
                index.cst_cell_box, ctx=ctx)
            parallel_times.append(time.perf_counter() - start)
            parallel_probed = ctx.stats.shard_pairs_parallel

            # The headline invariant: byte-identical candidates.
            assert pairs_parallel == pairs_serial

        pool_stats = parallel.stats()
    finally:
        parallel.shutdown_pool()

    t_serial = _median(serial_times)
    t_parallel = _median(parallel_times)
    speedup = t_serial / t_parallel
    dispatched = pool_stats["scatters"] > 0
    _record("probe_phase", {
        "workload": {
            "rows_per_side": N_SIDE + ROUNDS * BURST,
            "shards": SHARDS,
            "spread": SPREAD,
            "box_size": SIZE,
            "workers": WORKERS,
            "cpu_count": os.cpu_count(),
        },
        "shard_pairs_probed": probed,
        "shard_pairs_parallel": parallel_probed,
        "candidate_pairs": len(pairs_serial),
        "median_seconds_serial": round(t_serial, 4),
        "median_seconds_parallel": round(t_parallel, 4),
        "speedup_parallel": round(speedup, 2),
        "pool": pool_stats,
        "pairs_identical": True,
    })

    if not dispatched:
        pytest.skip("process pool unavailable: serial fallback "
                    "measured, equivalence still asserted")
    assert parallel_probed == probed > 0
    if (os.cpu_count() or 1) < 4:
        pytest.skip("probe speedup acceptance needs a multicore "
                    f"runner (measured {speedup:.2f}x; recorded)")
    assert speedup >= 1.0, (
        f"concurrent shard probes ran {speedup:.2f}x serial speed on "
        f"{os.cpu_count()} cores (see {RESULT_PATH})")


def test_full_join_byte_identical_across_probe_modes():
    sl, sr = _build_catalog()
    catalog = {"L": sl, "R": sr}
    parallel.reset_stats()
    parallel.shutdown_pool()
    try:
        index.clear_index_cache()
        with QueryContext(cache=None).activate():
            ctx = QueryContext()
            start = time.perf_counter()
            serial = _rows(execute(_sharded_plan(), catalog,
                                   use_optimizer=False, ctx=ctx))
            t_serial = time.perf_counter() - start
            assert ctx.stats.shard_pairs_parallel == 0

            ctx = QueryContext(parallelism=WORKERS)
            start = time.perf_counter()
            fanned = _rows(execute(_sharded_plan(), catalog,
                                   use_optimizer=False, ctx=ctx))
            t_parallel = time.perf_counter() - start
            parallel_probed = ctx.stats.shard_pairs_parallel
    finally:
        parallel.shutdown_pool()

    assert fanned == serial
    _record("full_join", {
        "result_rows": len(serial),
        "seconds_serial_probes": round(t_serial, 4),
        "seconds_parallel_probes": round(t_parallel, 4),
        "shard_pairs_parallel": parallel_probed,
        "results_identical": True,
    })
