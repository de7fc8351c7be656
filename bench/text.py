"""The three in-process workloads: LyriC text through
``lyric.query_translated`` on one thread.

* ``office_mix`` — the cache-friendly regime on the office database.
* ``sparse_join`` — 1-D scattered boxes; the box test kills almost
  every pair, so plan shape and the index do the work.
* ``dense_join`` — 2-D overlapping polytopes and a distinct ``$k`` per
  operation; nothing prunes and no conjunction repeats.

Every input (database, parameter pools, the operation schedule) is a
pure function of the seed; the program only ever sees those inputs.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from repro import lyric
from repro.constraints.cst_object import CSTObject
from repro.constraints.parser import parse_cst
from repro.core.parser import parse_query
from repro.core.pipeline import Pipeline
from repro.core.result import ResultRow, ResultSet
from repro.errors import ReproError
from repro.model.database import Database
from repro.model.oid import CstOid, as_oid
from repro.model.relations import flatten
from repro.model.schema import AttributeDef, CSTSpec, Schema
from repro.model.serialize import dump_oid
from repro.runtime import ExecutionGuard
from repro.runtime.context import ExecutionStats, QueryContext
from repro.server.protocol import encode_frame
from repro.sqlc import engine
from repro.sqlc.relation import ConstraintRelation
from repro.workloads import office
from repro.workloads.random_constraints import (
    make_variables,
    overlapping_polytopes,
)

from bench import layers
from bench.common import (
    Clock,
    Pass,
    Tally,
    WallClock,
    Yardstick,
    cell_boxes,
    clear_caches,
    median,
    peak_rss_mb,
    rows_bytes,
    scratch_dir,
    store_leg,
)
from bench.spans import SpanRecorder
from bench.store import join_predicate

#: Slots in one cycle of the operation schedule; template shares are
#: counted in slots, so the mix is exact over every whole cycle.
CYCLE = 20


@dataclass
class Instance:
    """One generated input set: the database plus its parameter pools."""

    db: Database
    pools: dict[str, list]
    seed: int


@dataclass(frozen=True)
class Template:
    """One query shape of a workload's mix.

    ``pool`` names the instance pool its parameters are drawn from
    (``None``: the query takes no parameters); ``fresh`` builds a
    never-repeating binding from the operation's index instead.
    ``oracle`` is how many of its timed operations are re-evaluated by
    the naive evaluator (the quadratic joins take one)."""

    name: str
    text: str
    slots: int
    pool: str | None = None
    fresh: Callable[[int], dict] | None = None
    oracle: int = 2

    def bindings(self, inst: Instance) -> list:
        if self.fresh is not None:
            return []
        return inst.pools[self.pool] if self.pool else [None]

    def draw(self, inst: Instance, rng: random.Random,
             index: int) -> dict | None:
        if self.fresh is not None:
            return self.fresh(index)
        bindings = self.bindings(inst)
        return bindings[rng.randrange(len(bindings))]


@dataclass(frozen=True)
class Op:
    index: int
    template: Template
    params: dict | None


@dataclass(frozen=True)
class TextWorkload:
    name: str
    build: Callable[[int, dict], Instance]
    templates: tuple[Template, ...]

    def schedule(self, seed: int, inst: Instance) -> Iterator[Op]:
        """The endless operation stream: a seeded shuffle of the
        ``CYCLE`` template slots, repeated, with parameters drawn from
        the instance's pools by the same generator."""
        rng = random.Random(seed * 7919 + 17)
        slots = [t for t in self.templates for _ in range(t.slots)]
        assert len(slots) == CYCLE, (self.name, len(slots))
        rng.shuffle(slots)
        for index in itertools.count():
            template = slots[index % CYCLE]
            yield Op(index, template, template.draw(inst, rng, index))


# ---------------------------------------------------------------------------
# office_mix
# ---------------------------------------------------------------------------

PROJECTION_QUERY = """
    SELECT CO, ((u,v) | E and D and x = $px and y = $py)
    FROM Office_Object CO
    WHERE CO.extent[E] and CO.translation[D]
"""

MAX_QUERY = """
    SELECT CO, MAX(u SUBJECT TO ((u,v) | E and D and x = $px and y = $py))
    FROM Office_Object CO
    WHERE CO.extent[E] and CO.translation[D]
"""

COLOR_LOOKUP = "SELECT X FROM Office_Object X WHERE X.color = $col"

INVENTORY_LOOKUP = \
    "SELECT O FROM Object_in_Room O WHERE O.inv_number = $inv"


def office_pools(n: int, pairs: int, rng: random.Random) -> dict:
    return {
        "col": [{"col": c} for c in ("red", "grey", "blue", "white")],
        "inv": [{"inv": f"INV-{i:05d}"} for i in range(n)],
        "pair": [{"px": rng.randint(0, 199), "py": rng.randint(0, 99)}
                 for _ in range(pairs)],
    }


def build_office(seed: int, size: dict) -> Instance:
    db = office.generate(size["n"], seed).db
    pools = office_pools(size["n"], size["pairs"],
                         random.Random(seed + 1))
    return Instance(db, pools, seed)


# Shares (of 20 slots), cheapest template first as timed on the
# baseline machine: lookups 30 %, entailment 10 %, MAX 25 %,
# projection 15 %, placed extent 20 %.  The median rank falls in the
# middle of the MAX band (40-65 %) and the p90 rank in the middle of
# the slowest band (80-100 %), so neither sits on a boundary between
# two templates' latency modes.
OFFICE_MIX = TextWorkload("office_mix", build_office, (
    Template("lookup_color", COLOR_LOOKUP, 3, pool="col"),
    Template("lookup_inventory", INVENTORY_LOOKUP, 3, pool="inv"),
    Template("red_left_drawer", office.RED_LEFT_DRAWER_QUERY, 2),
    Template("max_u", MAX_QUERY, 5, pool="pair"),
    Template("projection", PROJECTION_QUERY, 3, pool="pair"),
    Template("placed_extent", office.PLACED_EXTENT_QUERY, 4),
))


# ---------------------------------------------------------------------------
# sparse_join / dense_join
# ---------------------------------------------------------------------------


def join_database(dimension: int, lefts, rights) -> Database:
    """Two classes, ``Lft`` and ``Rgt``, each with a ``tag`` and a CST
    ``extent`` of the given dimension."""
    schema = Schema()
    schema.ensure_cst_class(dimension)
    names = ["x", "y"][:dimension]
    for class_name in ("Lft", "Rgt"):
        schema.define(class_name, attributes=[
            AttributeDef("tag", "string"),
            AttributeDef("extent", CSTSpec(names))])
    db = Database(schema)
    variables = make_variables(dimension)
    for class_name, items in (("Lft", lefts), ("Rgt", rights)):
        for i, constraint in enumerate(items):
            db.add_object(f"{class_name.lower()}_{i}", class_name, {
                "tag": f"{class_name}-{i}",
                "extent": CSTObject(variables, constraint)})
    return db


SPARSE_JOIN_QUERY = """
    SELECT A, B FROM Lft A, Rgt B
    WHERE A.extent[E] and B.extent[F] and SAT(E(x) and F(x))
"""

SPARSE_WINDOW_QUERY = """
    SELECT A FROM Lft A
    WHERE A.extent[E] and SAT(E(x) and $lo <= x <= $hi)
"""


def build_sparse(seed: int, size: dict) -> Instance:
    n = size["n"]
    rng = random.Random(seed)
    db = join_database(1, *cell_boxes(n, size["overlaps"], rng))
    windows = []
    for _ in range(size["windows"]):
        lo = rng.randint(-20 * n, 16 * n)
        windows.append({"lo": lo, "hi": lo + 4 * n})
    return Instance(db, {"window": windows}, seed)


# The join is the slower template and takes 70 % of the slots, so both
# the median and the p90 rank fall well inside its band.
SPARSE_JOIN = TextWorkload("sparse_join", build_sparse, (
    Template("window", SPARSE_WINDOW_QUERY, 6, pool="window"),
    Template("join", SPARSE_JOIN_QUERY, 14, oracle=1),
))

DENSE_JOIN_QUERY = """
    SELECT A, B FROM Lft A, Rgt B
    WHERE A.extent[E] and B.extent[F]
      and SAT(E(x,y) and F(x,y) and x + y <= $k)
"""


def distinct_k(index: int) -> dict:
    """A bound in [60, 240) that no other operation index below
    180 000 shares (7919 is coprime to the modulus), so no conjunction
    of the workload ever repeats and the constraint cache cannot
    hit.  Index -1 (the cold sweep) lands far from the small positive
    ones the timed block uses."""
    return {"k": Fraction(60_000 + (index * 7919) % 180_000, 1000)}


def uniform_polytopes(count: int, size: dict,
                       rng: random.Random) -> list:
    """``count`` overlapping polytopes that all have the same number
    of atoms once canonical: the first that qualify among candidates
    drawn from the seeded generator.  The work of a dense-join
    operation grows with the atoms of its operands, so without this
    each seed would time a different amount of work.  ``size["drawn"]``
    candidates are drawn and made canonical whatever the seed (more
    only if too few of them qualify), so every seed's set-up costs the
    same too."""
    variables = make_variables(2)
    kept, drawn = [], 0
    while len(kept) < count or drawn < size["drawn"]:
        candidate = overlapping_polytopes(
            1, 2, size["extra"], seed=rng.randrange(1 << 30),
            spread=100, size=80)[0]
        drawn += 1
        canonical = CSTObject(variables, candidate).constraint
        if len(canonical.atoms) == size["atoms"] and len(kept) < count:
            kept.append(canonical)
    return kept


def build_dense(seed: int, size: dict) -> Instance:
    rng = random.Random(seed)
    return Instance(
        join_database(2, uniform_polytopes(size["n"], size, rng),
                      uniform_polytopes(size["n"], size, rng)),
        {}, seed)


DENSE_JOIN = TextWorkload("dense_join", build_dense, (
    Template("join_k", DENSE_JOIN_QUERY, CYCLE, fresh=distinct_k,
             oracle=3),
))

WORKLOADS = {w.name: w for w in (OFFICE_MIX, SPARSE_JOIN, DENSE_JOIN)}


# ---------------------------------------------------------------------------
# Measurement (tracing off)
# ---------------------------------------------------------------------------


def cold_sweep(workload: TextWorkload, inst: Instance, tally: Tally,
               yardstick: Yardstick) -> list[float]:
    """Each template's first execution with every cache empty; its
    latency in milliseconds at the reference speed, per template."""
    def first_execution(template: Template) -> None:
        bindings = template.bindings(inst)
        params = bindings[0] if bindings else template.fresh(-1)
        try:
            lyric.query_translated(inst.db, template.text, params=params)
            tally.ok()
        except ReproError as exc:
            tally.fail(f"cold {template.name}: {exc}")

    clear_caches()
    _, seconds = yardstick.timed_each(
        functools.partial(first_execution, template)
        for template in workload.templates)
    return [1000.0 * s for s in seconds]


def touch_pools(workload: TextWorkload, inst: Instance,
                tally: Tally) -> None:
    """Run every pooled binding once, so the timed block starts with
    the caches as full as this workload can make them."""
    for template in workload.templates:
        for params in template.bindings(inst)[1:]:
            try:
                lyric.query_translated(inst.db, template.text,
                                       params=params)
                tally.ok()
            except ReproError as exc:
                tally.fail(f"warm-up {template.name}: {exc}")


def warm_up(workload: TextWorkload, inst: Instance, tally: Tally) -> None:
    """The caches as the timed block finds them, for the traced run."""
    cold_sweep(workload, inst, tally, WallClock())
    touch_pools(workload, inst, tally)


def oracle_check(workload: TextWorkload, inst: Instance, kept: list,
                 size: dict, tally: Tally) -> None:
    """Byte-compare the kept results against the naive evaluator on a
    cold, separately generated copy of the database."""
    reference_db = workload.build(inst.seed, size).db
    for op, result in kept:
        ctx = QueryContext(cache=None, plan_cache=None)
        try:
            expected = lyric.query(reference_db, op.template.text,
                                   ctx=ctx, params=op.params)
        except ReproError as exc:
            tally.fail(f"oracle {op.template.name}: {exc}")
            continue
        tally.check(rows_bytes(result) == rows_bytes(expected),
                    f"op {op.index} ({op.template.name}) differs "
                    f"from lyric.query")


def timed_block(inst: Instance, ops: list[Op], tally: Tally,
                yardstick: Yardstick,
                keep: dict[str, int]) -> tuple[list[float], list]:
    """The block of operations, one after the other on this thread;
    ``(latency in ms at the reference speed per operation, kept (op,
    result) pairs)``.  ``keep`` says how many results per template to
    hold on to."""
    def run(op: Op):
        try:
            result = lyric.query_translated(
                inst.db, op.template.text, params=op.params)
            tally.ok()
            return result
        except ReproError as exc:
            tally.fail(f"op {op.index} ({op.template.name}): {exc}")
            return None

    results, seconds = yardstick.timed_each(
        functools.partial(run, op) for op in ops)
    kept = []
    wanted = dict(keep)
    for op, result in zip(ops, results):
        if result is not None and wanted.get(op.template.name, 0) > 0:
            wanted[op.template.name] -= 1
            kept.append((op, result))
    return [1000.0 * s for s in seconds], kept


def measure(name: str, seed: int, seconds: float, size: dict) -> dict:
    """Passes until the clock runs out.  Every pass starts from nothing
    — caches cleared, the inputs generated again from the seed — then
    sets up (build, warm-up; the warm-up's first executions are the
    pass's cold sample), times the same block of ``size["ops"]``
    operations and runs the store legs.  The passes are thereby
    identical work spread over the whole run, every step of each with
    the machine's speed measured around it (``common.Yardstick``)."""
    workload = WORKLOADS[name]
    tally = Tally()
    passes, kept = [], []
    clock = Clock(seconds, size["min_passes"])
    with scratch_dir() as tmp:
        while clock.more():
            yardstick = Yardstick()
            clear_caches()
            inst, built = yardstick.timed(
                lambda: workload.build(seed, size))
            # The warm-up's first pass *is* a cold sweep, so its
            # latencies are kept as the pass's cold sample.
            cold_ms = cold_sweep(workload, inst, tally, yardstick)
            _, touched = yardstick.timed(
                lambda: touch_pools(workload, inst, tally))
            set_up = built + sum(cold_ms) / 1000.0 + touched
            ops = list(itertools.islice(
                workload.schedule(seed, inst), size["ops"]))
            # The first pass's first results go to the oracle.
            keep = {} if passes \
                else {t.name: t.oracle for t in workload.templates}
            started = time.perf_counter()
            latencies, held = timed_block(inst, ops, tally, yardstick, keep)
            clock.add(time.perf_counter() - started)
            kept += held
            # More cold samples, and the legs, come last: they leave
            # the caches empty.
            for _ in range(size["cold_sweeps"] - 1):
                cold_ms += cold_sweep(workload, inst, tally, yardstick)
            legs = [store_leg(inst.db, os.path.join(tmp, "leg"), yardstick)
                    for _ in range(size["legs"])]
            for leg in legs:
                tally.check(leg.same, "reopened store differs")
            rows = sum(leg.rows for leg in legs)
            passes.append(Pass(
                yardstick.slowdown,
                set_up, cold_ms, latencies,
                sum(leg.ingest_s for leg in legs) / rows,
                sum(leg.restore_s for leg in legs) / rows,
                legs[0].disk_bytes / legs[0].rows))
    rss = peak_rss_mb()
    oracle_check(workload, inst, kept, size, tally)
    return {"passes": passes, "peak_rss_mb": rss, "tally": tally,
            "info": {"rows": len(inst.db), "oracle_ops": len(kept)}}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

#: Operations of the schedule the traced run replays.
TRACE_OPS = 30


def op_context(op: Op) -> QueryContext:
    """A context with an account of its own and a budget-free guard
    (the guard is what counts pivots), as both passes of the traced
    run use."""
    params = None if op.params is None \
        else {name: as_oid(value) for name, value in op.params.items()}
    return QueryContext(stats=ExecutionStats(), guard=ExecutionGuard(),
                        params=params)


def staged(rec: SpanRecorder, db: Database, op: Op,
           ctx: QueryContext) -> tuple[ResultSet, list[bytes]]:
    """One operation through the staged path, a span around each call
    into a layer: parse, compile (a plan-cache hit when warm), flatten,
    execute, row packaging, frame encoding."""
    with rec.span("bench.op", op.index):
        with rec.span("core.parse"):
            tree = parse_query(op.template.text)
        pipeline = Pipeline(db, ctx)
        with rec.span("core.compile"):
            compiled = pipeline.compile(tree)
        with rec.span("model.flatten"):
            catalog = flatten(db, shards=ctx.shards)
        bound = ctx.derive(catalog=catalog, db=db)
        with rec.span("sqlc.execute"):
            relation = engine.execute(compiled.plan, catalog,
                                      use_optimizer=False, ctx=bound)
        with rec.span("core.package"):
            result = ResultSet(compiled.columns)
            for row in relation:
                cells = relation.row_dict(row)
                oid = cells.get(compiled.oid_column) \
                    if compiled.oid_column else None
                result.add(ResultRow(
                    tuple(cells[c] for c in compiled.columns), oid))
        with rec.span("server.encode"):
            frames = [encode_frame({
                "id": op.index, "type": "row",
                "values": [dump_oid(v) for v in row.values],
                "oid": None if row.oid is None else dump_oid(row.oid)})
                for row in result]
            frames.append(encode_frame({
                "id": op.index, "type": "done", "rows": len(result),
                "columns": list(compiled.columns)}))
    return result, frames


def constraint_sample(inst: Instance, limit: int = 48) -> list:
    """Conjunctions the workload itself evaluates: for the join
    databases ``E and F`` over the first rows of each side, for the
    office database ``E and D and x = px and y = py`` per object."""
    db = inst.db
    if db.schema.has_class("Lft"):
        lefts = [db.cst_value(oid, "extent").constraint
                 for oid in db.extent("Lft")[:8]]
        rights = [db.cst_value(oid, "extent").constraint
                  for oid in db.extent("Rgt")[:8]]
        return [a.conjoin(b) for a in lefts for b in rights][:limit]
    pair = next(pool[0] for name, pool in inst.pools.items()
                if name.startswith("pair") and pool)
    at = parse_cst(f"((x,y) | x = {pair['px']} and y = {pair['py']})"
                   ).constraint
    return [db.cst_value(oid, "extent").constraint
            .conjoin(db.cst_value(oid, "translation").constraint)
            .conjoin(at)
            for oid in db.extent("Office_Object")[:limit]]


def cst_texts(db: Database, limit: int = 64) -> list[str]:
    """Stored CST cells in the textual form snapshots and WAL records
    carry them in."""
    texts = []
    for obj in db.objects():
        for name in obj.attribute_names:
            for value in obj.values(name):
                if isinstance(value, CstOid):
                    texts.append(value.cst.oid_text())
    return texts[:limit]


def side_relations(db: Database) -> dict:
    """The join workloads' two sides as flat relations ``L(lid, e)``
    and ``R(rid, f)`` — the *same* rows the text query joins."""
    def side(class_name: str, name: str, columns: tuple) -> \
            ConstraintRelation:
        return ConstraintRelation(name, columns, [
            (oid, db.object(oid).get("extent"))
            for oid in db.extent(class_name)])
    return {"L": side("Lft", "L", ("lid", "e")),
            "R": side("Rgt", "R", ("rid", "f"))}


def static_probes(workload: TextWorkload, inst: Instance, ops: list,
                  tmp: str, tally: Tally) -> dict:
    """Everything of the traced run that is not a replayed operation:
    compile phases, plan shapes, the naive evaluator, the hand-built
    index join, index build, constraint entry points, the store leg."""
    db = inst.db
    texts = [t.text for t in workload.templates]
    values = layers.compile_probe(db, texts)

    index_joins = sharded_joins = 0
    for text in texts:
        index_joins += layers.plan_counts(lyric.explain(db, text))[0]
        sharded_joins += layers.plan_counts(lyric.explain(
            db, text, ctx=QueryContext(shards=16)))[1]
    values["sqlc.index_joins_selected"] = index_joins
    values["sqlc.sharded_joins_selected"] = sharded_joins

    naive = []
    for template in workload.templates:
        op = next(o for o in ops if o.template is template)
        start = time.perf_counter()
        lyric.query(db, template.text, params=op.params)
        naive.append(time.perf_counter() - start)
        tally.ok()
    values["core.naive_ms"] = 1000.0 * sum(naive) / len(naive)

    extent = flatten(db)["attr:extent"]
    values["sqlc.index_build_ms"] = layers.index_build_ms(extent, "value")
    if db.schema.has_class("Lft"):
        values["sqlc.index_join_ms"] = layers.index_join_ms(
            side_relations(db), join_predicate())

    values.update(layers.constraint_probe(constraint_sample(inst),
                                          cst_texts(db)))
    leg = store_leg(db, os.path.join(tmp, "leg"), WallClock(), keep=True)
    tally.check(leg.same, "reopened store differs")
    values.update(layers.storage_probe(leg.wal_path))
    values.update({
        "storage.snapshot_ms": 1000.0 * leg.snapshot_s,
        "storage.snapshot_bytes_per_row":
            leg.snapshot_bytes / leg.snapshot_rows,
        "storage.writes_per_burst": leg.writes / leg.rows,
        "storage.fsyncs_per_burst": leg.fsyncs / leg.rows,
    })
    return values


def untraced_pass(workload: TextWorkload, inst: Instance, ops: list,
                  tally: Tally) -> tuple[list, list, list]:
    """``ops`` through the public entry point from the warmed-up cache
    state; ``(seconds, accounts, results)`` per operation."""
    clear_caches()
    warm_up(workload, inst, tally)
    seconds, accounts, results = [], [], []
    for op in ops:
        ctx = op_context(op)
        start = time.perf_counter()
        results.append(lyric.query_translated(
            inst.db, op.template.text, ctx=ctx))
        seconds.append(time.perf_counter() - start)
        accounts.append(ctx.stats)
        tally.ok()
    return seconds, accounts, results


def replay(workload: TextWorkload, inst: Instance, ops: list,
           tally: Tally) -> tuple[dict, list, list]:
    """The first operations of the schedule three times, each from the
    same cache state: through the public entry point with tracing off
    (the program's own counters are read from this pass), through the
    staged path with spans, and through the entry point again — the
    traced pass is compared with the mean of the untraced passes
    around it, which cancels a drift in the machine's speed.  Returns
    the metrics, the untraced seconds per operation and the encoded
    frames per operation."""
    db = inst.db
    rec = SpanRecorder()
    untraced, accounts, results = untraced_pass(workload, inst, ops, tally)
    clear_caches()
    warm_up(workload, inst, tally)
    encoded = []
    for op, expected in zip(ops, results):
        result, frames = staged(rec, db, op, op_context(op))
        tally.check(rows_bytes(result) == rows_bytes(expected),
                    f"staged op {op.index} differs from the entry point")
        encoded.append(frames)
    frame_count = sum(len(frames) for frames in encoded)
    frame_bytes = sum(len(f) for frames in encoded for f in frames)

    after, _, _ = untraced_pass(workload, inst, ops, tally)
    values = layers.counter_metrics(
        accounts, sum(len(r) for r in results))
    values.update(layers.trace_metrics(
        rec, workload.name, (median(untraced) + median(after)) / 2))
    values.update({
        "core.package_ms":
            1000.0 * sum(rec.durations("core.package")) / len(ops),
        "server.frame_encode_us":
            1e6 * sum(rec.durations("server.encode")) / frame_count,
        "server.frame_bytes_per_op": frame_bytes / len(ops),
    })
    return values, untraced, encoded


def trace(name: str, seed: int, size: dict) -> tuple[dict, Tally, dict]:
    workload = WORKLOADS[name]
    tally = Tally()
    inst = workload.build(seed, size)
    ops = list(itertools.islice(workload.schedule(seed, inst), TRACE_OPS))
    values, _, _ = replay(workload, inst, ops, tally)
    with scratch_dir() as tmp:
        values.update(static_probes(workload, inst, ops, tmp, tally))
    return values, tally, {"traced_ops": len(ops), "rows": len(inst.db)}
