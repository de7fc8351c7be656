"""ISSUE 2 — constraint cache + interval prefilter effectiveness.

The acceptance benchmark: a repeated canonicalization/satisfiability
workload (the flat engine's join-loop access pattern, where the same
constraints recur as fresh structurally-equal instances) must run at
least 2x faster with the cache and prefilter on than with both off,
with zero result differences.  The measured numbers are written to
``BENCH_cache.json`` at the repository root — the first point of the
bench trajectory CI tracks.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.constraints.canonical import canonical_conjunctive
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.satisfiability import is_satisfiable
from repro.runtime.cache import ConstraintCache
from repro.runtime.context import QueryContext
from repro.workloads.random_constraints import (
    random_infeasible,
    random_polytope,
    redundant_conjunction,
)

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_cache.json"

#: How many times each unique constraint recurs in the workload.
REPEATS = 5
ROUNDS = 3


def _workload() -> list[ConjunctiveConstraint]:
    base = [redundant_conjunction(3, 5, 4, seed=s) for s in range(6)]
    base += [random_polytope(3, 8, seed=s) for s in range(6)]
    base += [random_infeasible(3, 8, seed=s) for s in range(6)]
    # Fresh instances per occurrence: nothing is shared object-wise, so
    # all reuse must come from the structural cache keys.
    return [ConjunctiveConstraint(c.atoms)
            for _ in range(REPEATS) for c in base]


def _evaluate(workload) -> list:
    return [(canonical_conjunctive(c), is_satisfiable(c))
            for c in workload]


def _median_time(fn) -> tuple[float, object]:
    samples, result = [], None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def test_cache_speedup_and_equivalence():
    workload = _workload()

    def run_off():
        with QueryContext(cache=None, prefilter=False).activate():
            return _evaluate(workload)

    counters = {}

    def run_on():
        cache = ConstraintCache()
        with QueryContext(cache=cache).activate():
            result = _evaluate(workload)
        counters.update(cache.counters())
        return result

    t_off, baseline = _median_time(run_off)
    t_on, cached = _median_time(run_on)

    # Zero result differences between the modes.
    assert baseline == cached

    speedup = t_off / t_on
    hit_rate = counters["hits"] / max(
        1, counters["hits"] + counters["misses"])
    payload = {
        "experiment": "E16",
        "workload": {
            "unique_constraints": len(workload) // REPEATS,
            "repeats": REPEATS,
            "total_evaluations": len(workload),
        },
        "median_seconds_disabled": round(t_off, 4),
        "median_seconds_cached": round(t_on, 4),
        "speedup": round(speedup, 2),
        "hit_rate": round(hit_rate, 3),
        "cache_hits": counters["hits"],
        "cache_misses": counters["misses"],
        "cache_evictions": counters["evictions"],
        "simplex_solves_saved": counters["simplex_saved"],
        "results_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= 2.0, (
        f"cache+prefilter speedup {speedup:.2f}x below the 2x "
        f"acceptance threshold (see {RESULT_PATH})")


def test_warm_cache_hit_rate():
    """A second pass over the same workload through a shared cache is
    almost entirely hits."""
    workload = _workload()
    cache = ConstraintCache()
    with QueryContext(cache=cache).activate():
        first = _evaluate(workload)
        warm_start_hits = cache.hits
        second = _evaluate(workload)
    assert first == second
    top_level_lookups = 2 * len(workload)   # canon + sat per item
    second_pass_hits = cache.hits - warm_start_hits
    assert second_pass_hits >= top_level_lookups
