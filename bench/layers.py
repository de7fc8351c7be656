"""Per-layer probes of the traced run.

Each function times calls into *public* functions of one layer on a
fixed sample of the workload's own inputs, or reads counters the
program already keeps (``ExecutionStats``, its ``PhaseRecord``\\ s,
``store.io``).  Metric names carry the module of ``src/repro`` they
measure; ``bench/README.md`` maps each to the end-to-end metric it
should move.
"""

from __future__ import annotations

import os
import time

from repro.constraints import kernel
from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.canonical import canonical_conjunctive
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.implication import conjunctive_entails_conjunctive
from repro.constraints.lp import max_value
from repro.constraints.matrix import ConstraintMatrix
from repro.constraints.parser import parse_cst
from repro.constraints.projection import project_conjunctive
from repro.constraints.satisfiability import is_satisfiable
from repro.core.parser import parse_query
from repro.core.pipeline import Pipeline
from repro.core.semantics import analyze
from repro.errors import ReproError
from repro.model.serialize import load_oid, load_value
from repro.runtime.context import ExecutionStats, QueryContext
from repro.sqlc import index
from repro.sqlc.algebra import IndexJoin, Scan
from repro.sqlc.engine import execute
from repro.storage import read_wal

from bench.common import OUT_DIR, median
from bench.spans import SpanRecorder


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def median_us(fn, items, repeat: int = 3) -> float:
    """Median microseconds of one ``fn(item)`` call, over ``repeat``
    passes across ``items``."""
    if not items:
        return 0.0
    samples = []
    for _ in range(repeat):
        for item in items:
            start = time.perf_counter()
            fn(item)
            samples.append(time.perf_counter() - start)
    return median(samples) * 1e6


def trace_metrics(rec: SpanRecorder, workload: str,
                  untraced_s: float) -> dict:
    """What the spans themselves say — per-layer self time, the traced
    operation's median and its ratio to ``untraced_s`` (the untraced
    median of the same operations) — after writing them to
    ``bench/out/trace-<workload>.jsonl``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write(os.path.join(OUT_DIR, f"trace-{workload}.jsonl"))
    traced = median(rec.durations("bench.op"))
    values = {"trace.op_ms": 1000.0 * traced,
              "trace.overhead_ratio": traced / untraced_s}
    for layer, self_ms in rec.layer_self_ms_per_op().items():
        if layer != "bench":
            values[f"trace.{layer}_self_ms"] = self_ms
    return values


# -- core: the compile pipeline ----------------------------------------------


def compile_probe(db, texts: list[str], repeat: int = 3) -> dict:
    """Compile every template from scratch (no plan cache) and split
    the time by phase; means over templates of per-template medians."""
    parse, analysis, translate, optimize, whole = [], [], [], [], []
    for text in texts:
        samples: dict[str, list[float]] = {
            k: [] for k in ("parse", "analyze", "translate",
                            "optimize", "compile")}
        for _ in range(repeat):
            start = time.perf_counter()
            tree = parse_query(text)
            parsed = time.perf_counter()
            analyze(db.schema, tree)
            samples["parse"].append(parsed - start)
            samples["analyze"].append(time.perf_counter() - parsed)
            stats = ExecutionStats()
            ctx = QueryContext(plan_cache=None, stats=stats)
            start = time.perf_counter()
            Pipeline(db, ctx).compile(text)
            samples["compile"].append(time.perf_counter() - start)
            phases = {}
            for record in stats.phases:
                key = "optimize" if record.name.startswith("rewrite:") \
                    or record.name == "physical-plan" else record.name
                phases[key] = phases.get(key, 0.0) + record.seconds
            samples["translate"].append(phases.get("translate", 0.0))
            samples["optimize"].append(phases.get("optimize", 0.0))
        parse.append(median(samples["parse"]))
        analysis.append(median(samples["analyze"]))
        translate.append(median(samples["translate"]))
        optimize.append(median(samples["optimize"]))
        whole.append(median(samples["compile"]))

    def mean_ms(values: list[float]) -> float:
        return 1000.0 * sum(values) / len(values)
    return {"core.parse_ms": mean_ms(parse),
            "core.analyze_ms": mean_ms(analysis),
            "core.translate_ms": mean_ms(translate),
            "core.optimize_ms": mean_ms(optimize),
            "core.compile_ms": mean_ms(whole)}


def plan_counts(rendered: str) -> tuple[int, int]:
    """``(IndexJoin nodes, ShardedIndexJoin nodes)`` of a rendered
    plan tree."""
    sharded = rendered.count("ShardedIndexJoin(")
    return rendered.count("IndexJoin(") - sharded, sharded


# -- counters the program keeps ------------------------------------------------


def counter_metrics(accounts: list[ExecutionStats],
                    output_rows: int) -> dict:
    """Ratios and per-operation counts from the ``ExecutionStats`` of
    the traced operations (one account per operation)."""
    ops = len(accounts) or 1

    def total(field: str) -> float:
        return sum(getattr(a, field) for a in accounts)

    def phase_ms(name: str) -> float:
        samples = [1000.0 * p.seconds for a in accounts
                   for p in a.phases if p.name == name]
        return median(samples) if samples else 0.0

    pruned, candidates = total("candidates_pruned"), \
        total("index_candidates")
    decided = total("numeric_accepts") + total("numeric_rejects")
    shard_pruned = total("shard_pairs_pruned")
    return {
        "model.flatten_ms": phase_ms("bind"),
        "core.execute_ms": phase_ms("execute"),
        "sqlc.rows_examined_per_result":
            ratio(pruned + candidates, output_rows),
        "sqlc.candidate_fraction": ratio(candidates, pruned + candidates),
        "sqlc.index_probes_per_op": total("index_probes") / ops,
        "sqlc.shard_pairs_pruned_ratio": ratio(
            shard_pruned, shard_pruned + total("shard_pairs_probed")),
        "sqlc.index_extends_per_op": total("index_extends") / ops,
        "constraints.kernel_decided_ratio":
            ratio(decided, decided + total("numeric_fallbacks")),
        "constraints.simplex_solves_per_op": total("simplex_solves") / ops,
        "constraints.pivots_per_op": total("pivots") / ops,
        "constraints.box_refutation_ratio":
            ratio(total("box_refutations"), total("box_checks")),
        "runtime.cache_hit_ratio": ratio(
            total("cache_hits"),
            total("cache_hits") + total("cache_misses")),
        "runtime.cache_evictions": total("cache_evictions"),
        "runtime.plancache_hit_ratio": ratio(
            total("plan_cache_hits"),
            total("plan_cache_hits") + total("plan_cache_misses")),
        "runtime.plan_compile_saved_ms":
            1000.0 * total("plan_compile_saved") / ops,
        "runtime.pool_dispatches_per_op": total("pool_dispatches") / ops,
        "runtime.parallel_fallbacks": total("parallel_fallbacks"),
    }


# -- constraints ---------------------------------------------------------------


def constraint_probe(sample: list[ConjunctiveConstraint],
                     cst_texts: list[str]) -> dict:
    """Microseconds per call of the constraint layer's entry points on
    ``sample`` (conjunctions the workload itself evaluates), with the
    constraint cache off so every call does its work."""
    ctx = QueryContext(cache=None, plan_cache=None)

    def free_of(conj):
        chosen = [v for v in conj.variables if v.name in ("u", "v")]
        return chosen or sorted(conj.variables, key=str)[:1]

    def entails(conj):
        first = min(conj.variables, key=str)
        bound = ConjunctiveConstraint(
            [LinearConstraint.build(first, Relop.LE, 10 ** 6)])
        return conjunctive_entails_conjunctive(conj, bound, ctx)

    def maximize(conj):
        try:
            max_value(free_of(conj)[0], conj)
        except ReproError:
            pass  # empty or unbounded systems still cost their solve

    with ctx.activate():
        batch = ConstraintMatrix.from_constraints(sample)
        start = time.perf_counter()
        kernel.classify_matrix(batch, ctx)
        kernel_s = time.perf_counter() - start
        return {
            "constraints.sat_us":
                median_us(lambda c: is_satisfiable(c, ctx), sample),
            "constraints.kernel_us_per_row":
                1e6 * kernel_s / max(1, len(sample)),
            "constraints.canonical_us": median_us(
                lambda c: canonical_conjunctive(c, ctx=ctx), sample),
            "constraints.project_us": median_us(
                lambda c: project_conjunctive(c, free_of(c)), sample),
            "constraints.entails_us": median_us(entails, sample),
            "constraints.lp_us": median_us(maximize, sample),
            "constraints.parse_cst_us": median_us(parse_cst, cst_texts),
        }


# -- sqlc: the box index ---------------------------------------------------------


def index_build_ms(relation, column: str, repeat: int = 3) -> float:
    """``index.index_for`` with nothing cached."""
    samples = []
    for _ in range(repeat):
        index.clear_index_cache()
        start = time.perf_counter()
        index.index_for(relation, column, index.cst_cell_box)
        samples.append(time.perf_counter() - start)
    return 1000.0 * median(samples)


def index_join_ms(relations: dict, predicate, repeat: int = 3) -> float:
    """The layer's own floor for a join: a hand-built
    ``IndexJoin(Scan L, Scan R)`` over ``relations``, optimizer and
    constraint cache off."""
    plan = IndexJoin(Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
                     "e", "f", index.cst_cell_box, index.cst_cell_box,
                     predicate)
    ctx = QueryContext(cache=None, plan_cache=None)
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        execute(plan, relations, use_optimizer=False, ctx=ctx)
        samples.append(time.perf_counter() - start)
    return 1000.0 * median(samples)


# -- storage -----------------------------------------------------------------------


def storage_probe(wal_path: str) -> dict:
    """Split the replay of one WAL into framing (``read_wal``: header,
    length prefixes, CRCs, JSON) and row loading (``serialize`` over
    the same records: ``parse_cst`` and canonicalisation).  The
    constraint cache is off, as after a restart."""
    start = time.perf_counter()
    _, _, records, _, _ = read_wal(wal_path)
    scan_s = time.perf_counter() - start
    rows = 0
    with QueryContext(cache=None, plan_cache=None).activate():
        start = time.perf_counter()
        for record in records:
            if record.get("op") == "add_object":
                for raw in record["object"]["values"].values():
                    load_value(raw)
                rows += 1
            elif record.get("op") == "add_rows":
                for row in record["rows"]:
                    for cell in row:
                        load_oid(cell)
                rows += len(record["rows"])
        load_s = time.perf_counter() - start
    return {
        "storage.wal_bytes_per_row":
            ratio(os.path.getsize(wal_path), rows),
        "storage.scan_records_ms": 1000.0 * scan_s,
        "storage.load_rows_ms": 1000.0 * load_s,
    }
