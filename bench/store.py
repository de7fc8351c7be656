"""``burst_store`` — writes beside reads on a durable, sharded store,
through the relation-level API.

One operation is an ``add_rows`` burst on both relations (one WAL
record each, eager per-shard index and matrix upkeep) followed by one
``engine.execute`` of ``Select(NaturalJoin(Scan L, Scan R), SAT)`` with
the optimizer on, so the program — not the benchmark — picks
``ShardedIndexJoin``.  A *round* creates a store, fills the base rows,
runs a fixed number of operations (snapshotting once 80 % of the rows
are in), then flushes, closes, reopens the store under the clock and
joins once more on the restored relations.  Rounds repeat, each on a
fresh store with every cache cleared, until the clock runs out: the
relations grow inside a round, so only whole rounds are comparable.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import random
import shutil
import time
from dataclasses import dataclass

from repro.constraints.cst_object import CSTObject
from repro.constraints.satisfiability import is_satisfiable
from repro.errors import ReproError
from repro.model.oid import CstOid, LiteralOid
from repro.runtime.context import ExecutionStats, QueryContext
from repro.sqlc import index, optimizer
from repro.sqlc.algebra import CstPredicate, NaturalJoin, Scan, Select
from repro.sqlc.engine import execute
from repro.sqlc.relation import ConstraintRelation
from repro.sqlc.shard import ShardedConstraintRelation
from repro.storage import Store
from repro.workloads.random_constraints import make_variables

from bench import layers
from bench.common import (
    Clock,
    Pass,
    Sequence,
    Tally,
    WallClock,
    Yardstick,
    cell_boxes,
    clear_caches,
    dir_bytes,
    mean,
    median,
    peak_rss_mb,
    relation_bytes,
    scratch_dir,
)
from bench.spans import SpanRecorder

SHARDS = 16
_VARS = make_variables(1)


def sat_pair(a, b) -> bool:
    return is_satisfiable(a.cst.constraint.conjoin(b.cst.constraint))


def join_predicate() -> CstPredicate:
    return CstPredicate(
        ("e", "f"), sat_pair, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)))


def join_plan() -> Select:
    return Select(NaturalJoin(Scan("L", ("lid", "e")),
                              Scan("R", ("rid", "f"))), join_predicate())


@dataclass
class Rows:
    """Every row a round will append, generated once per set-up."""

    left: list
    right: list
    base: int
    burst: int
    ops: int

    def burst_slice(self, op: int) -> slice:
        start = self.base + op * self.burst
        return slice(start, start + self.burst)

    def rotated(self, offset: int) -> "Rows":
        """The same rows arriving ``offset`` positions later: another
        base and other bursts of the same population."""
        return dataclasses.replace(
            self, left=self.left[offset:] + self.left[:offset],
            right=self.right[offset:] + self.right[:offset])

    @property
    def snapshot_after(self) -> int:
        """The operation after which 80 % of a side's rows are in."""
        total = self.base + self.ops * self.burst
        need = int(0.8 * total) - self.base
        return max(0, -(-need // self.burst) - 1)


def generate(seed: int, size: dict) -> Rows:
    """One left/right pair in ten overlaps; arrival order is random,
    so overlapping pairs land in the base rows and in every burst."""
    total = size["base"] + size["burst"] * size["ops"]
    lefts, rights = cell_boxes(total, total // 10, random.Random(seed))

    def rows(boxes: list) -> list:
        return [(LiteralOid(i), CstOid(CSTObject(_VARS, box)))
                for i, box in enumerate(boxes)]
    return Rows(rows(lefts), rows(rights),
                size["base"], size["burst"], size["ops"])


def open_relations(store: Store):
    left = store.create_relation("L", ("lid", "e"), shards=SHARDS,
                                 partition_by="e")
    right = store.create_relation("R", ("rid", "f"), shards=SHARDS,
                                  partition_by="f")
    return left, right


def run_round(rows: Rows, path: str, tally: Tally, ops: int | None = None,
              restore: bool = True,
              yardstick: Yardstick | None = None) -> dict:
    """One round on a fresh store at ``path``; with ``restore`` off it
    stops after the operations (the set-up's warm-up uses that).  With
    a ``yardstick`` the latencies, the burst times and the restore time
    are at the reference speed."""
    clear_caches()
    yardstick = yardstick or WallClock()
    plan = join_plan()
    ops = rows.ops if ops is None else ops
    shares = []
    store = Store.create(path, durability="batch")
    try:
        left, right = open_relations(store)
        def add_base() -> None:
            left.add_rows(rows.left[:rows.base])
            right.add_rows(rows.right[:rows.base])
        _, base_s = yardstick.timed(add_base)
        result = None
        sequence = Sequence(yardstick)
        for op in range(ops):
            window = rows.burst_slice(op)
            sequence.start()
            start = time.perf_counter()
            left.add_rows(rows.left[window])
            right.add_rows(rows.right[window])
            shares.append(time.perf_counter() - start)
            try:
                result = execute(plan, store.relations)
                tally.ok()
            except ReproError as exc:
                tally.fail(f"op {op}: {exc}")
            shares[-1] /= time.perf_counter() - start
            sequence.stop()
            if op == rows.snapshot_after and restore:
                store.snapshot()
        latencies = sequence.finish()
        # A burst ran at its operation's speed.
        bursts = [share * latency
                  for share, latency in zip(shares, latencies)]
        store.flush()
        live_rows = len(left) + len(right)
        live_join = relation_bytes(result) if result is not None else b""
        out = {"latencies": latencies, "bursts": [base_s] + bursts,
               "live_rows": live_rows,
               "disk_bytes": dir_bytes(path), "joined": result,
               "relations": dict(store.relations)}
    finally:
        store.close()
    if restore:
        # Twice: a reopen is one long call that no yardstick sample can
        # be taken inside, and a single one moved by 20 % between runs.
        seconds = []
        for _ in range(2):
            # A restart is a new process: nothing the writer cached
            # survives.
            clear_caches()
            reopened, restore_s = yardstick.timed(lambda: Store.open(path))
            seconds.append(restore_s)
            try:
                restored = execute(plan, reopened.relations)
                tally.check(relation_bytes(restored) == live_join,
                            "restored-store join differs from live join")
            finally:
                reopened.close()
        out["restore_s"] = mean(seconds)
    return out


def nested_loop_check(rows: Rows, joined, sample: int,
                      tally: Tally) -> None:
    """The reference: the same Select over the cross product of each
    side's first ``sample`` rows — no optimizer, no index, no
    constraint cache — against the live join restricted to those rows
    (row ids are arrival positions, so the restriction is exact)."""
    catalog = {
        "L": ConstraintRelation("L", ("lid", "e"), rows.left[:sample]),
        "R": ConstraintRelation("R", ("rid", "f"), rows.right[:sample]),
    }
    ctx = QueryContext(indexing=False, cache=None, plan_cache=None)
    expected = execute(join_plan(), catalog, use_optimizer=False, ctx=ctx)
    lid, rid = joined.column_index("lid"), joined.column_index("rid")
    got = [row for row in joined
           if row[lid].value < sample and row[rid].value < sample]
    tally.check(sorted(map(repr, got))
                == sorted(repr(tuple(row)) for row in expected),
                "sharded join differs from nested-loop join")


def measure(_name: str, seed: int, seconds: float, size: dict) -> dict:
    """Passes until the clock runs out, as in ``text.measure``: every
    pass generates the rows again from the seed, warms up with one
    operation on a fresh store (the set-up; that operation is cold) and
    then runs one whole round — the block of ``size["ops"]``
    operations, then flush, close and the timed reopens."""
    tally = Tally()
    passes = []
    clock = Clock(seconds, size["min_passes"])
    with scratch_dir() as tmp:
        while clock.more():
            yardstick = Yardstick()
            rows, generated = yardstick.timed(lambda: generate(seed, size))

            def warm_round(turn: int) -> float:
                path = os.path.join(tmp, "setup")
                warm = run_round(rows.rotated(turn * rows.base // 2), path,
                                 tally, ops=1, restore=False,
                                 yardstick=yardstick)
                shutil.rmtree(path)
                return 1000.0 * warm["latencies"][0]

            # Rounds of one operation: the first is the warm-up (and
            # set-up), and each one's operation is cold, on a fresh
            # store with empty caches.  Each takes its base rows and
            # its burst from another stretch of the rows: what one
            # cold operation costs depends on the few rows it sees
            # (4.6 to 7.1 ms between seeds).
            cold_ms, warmed = yardstick.timed_each(
                functools.partial(warm_round, turn)
                for turn in range(size["cold_rounds"]))
            started = time.perf_counter()
            done = run_round(rows, os.path.join(tmp, "round"), tally,
                             yardstick=yardstick)
            # The restore is timed too, and longer than the operations.
            clock.add(time.perf_counter() - started)
            passes.append(Pass(
                yardstick.slowdown, generated + warmed[0],
                # The whole round's first operation is cold too.
                cold_ms + [1000.0 * done["latencies"][0]],
                [1000.0 * s for s in done["latencies"]],
                sum(done["bursts"]) / done["live_rows"],
                done["restore_s"] / done["live_rows"],
                done["disk_bytes"] / done["live_rows"]))
            shutil.rmtree(os.path.join(tmp, "round"))
        rss = peak_rss_mb()
        nested_loop_check(rows, done["joined"], size["oracle_rows"], tally)
    return {"passes": passes, "peak_rss_mb": rss, "tally": tally,
            "info": {"rows": done["live_rows"],
                     "oracle_ops": 1 + len(passes)}}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def sharded_pair() -> dict:
    """Store-less relations with the store's shard layout."""
    return {
        "L": ShardedConstraintRelation("L", ("lid", "e"), shards=SHARDS,
                                       partition_by="e"),
        "R": ShardedConstraintRelation("R", ("rid", "f"), shards=SHARDS,
                                       partition_by="f")}


def plain_pair() -> dict:
    return {"L": ConstraintRelation("L", ("lid", "e")),
            "R": ConstraintRelation("R", ("rid", "f"))}


def timed_burst(relations, rows: Rows, window: slice) -> float:
    start = time.perf_counter()
    relations["L"].add_rows(rows.left[window])
    relations["R"].add_rows(rows.right[window])
    return time.perf_counter() - start


def traced_round(rows: Rows, path: str, rec: SpanRecorder,
                 tally: Tally) -> dict:
    """One round with a span around each call into a layer
    (``add_rows`` → ``execute`` → ``snapshot`` → ``open``).  Beside the
    store's relations two shadows take the same bursts — store-less
    sharded relations (eager index upkeep, no WAL) and plain ones
    (neither) — so the differences price the WAL append and the index
    upkeep of a burst."""
    clear_caches()
    plan = join_plan()
    base = slice(0, rows.base)
    accounts, wal_s, extend_s = [], [], []
    writes = fsyncs = 0
    ingest = ExecutionStats()
    ingest_ctx = QueryContext(stats=ingest)
    store = Store.create(path, durability="batch")
    try:
        relations = dict(zip("LR", open_relations(store)))
        sharded, plain = sharded_pair(), plain_pair()
        for shadow in (relations, sharded, plain):
            timed_burst(shadow, rows, base)
        # A first join registers the index targets, after which the
        # sharded relations keep their per-shard indexes current at
        # ingest time.
        execute(plan, store.relations)
        execute(plan, sharded, ctx=QueryContext(cache=None))
        snapshot_s = snapshot_bytes = snapshot_rows = 0
        for op in range(rows.ops):
            window = rows.burst_slice(op)
            before = store.io.writes, store.io.fsyncs
            account = ExecutionStats()
            with rec.span("bench.op", op):
                with rec.span("storage.add_rows"), ingest_ctx.activate():
                    in_store = timed_burst(relations, rows, window)
                with rec.span("sqlc.execute"):
                    execute(plan, store.relations, stats=account)
            writes += store.io.writes - before[0]
            fsyncs += store.io.fsyncs - before[1]
            accounts.append(account)
            tally.ok()
            in_sharded = timed_burst(sharded, rows, window)
            in_plain = timed_burst(plain, rows, window)
            wal_s.append(in_store - in_sharded)
            extend_s.append(in_sharded - in_plain)
            if op == rows.snapshot_after:
                start = time.perf_counter()
                with rec.span("storage.snapshot", op):
                    store.snapshot()
                snapshot_s = time.perf_counter() - start
                snapshot_rows = len(relations["L"]) + len(relations["R"])
                snapshot_bytes = os.path.getsize(os.path.join(
                    path, f"snapshot-{store.generation:06d}.lyrc"))
        store.flush()
        generation = store.generation
        live_rows = len(relations["L"]) + len(relations["R"])
        output_rows = sum(a.output_rows for a in accounts)
    finally:
        store.close()
    clear_caches()
    with rec.span("storage.open", rows.ops):
        reopened = Store.open(path)
    reopened.close()
    return {"accounts": accounts, "ingest": ingest, "rows": live_rows,
            "wal_path": os.path.join(path, f"wal-{generation:06d}.log"),
            "snapshot_s": snapshot_s,
            "snapshot_bytes_per_row": snapshot_bytes / snapshot_rows,
            "writes": writes, "fsyncs": fsyncs,
            "wal_s": wal_s, "extend_s": extend_s,
            "output_rows": output_rows, "plain": plain}


def trace(name: str, seed: int, size: dict) -> tuple[dict, Tally, dict]:
    tally = Tally()
    rec = SpanRecorder()
    rows = generate(seed, size)
    with scratch_dir() as tmp:
        # A discarded round first: the process's first round runs
        # slower than any later one, whichever path it takes.
        run_round(rows, os.path.join(tmp, "warm"), tally, restore=False)
        # An untraced round on either side of the traced one: their
        # mean cancels a drift in the machine's speed.
        before = run_round(rows, os.path.join(tmp, "before"), tally)
        done = traced_round(rows, os.path.join(tmp, "traced"), rec, tally)
        after = run_round(rows, os.path.join(tmp, "after"), tally,
                          restore=False)
        values = layers.counter_metrics(done["accounts"],
                                        done["output_rows"])
        values.update(layers.storage_probe(done["wal_path"]))
    values.update(layers.trace_metrics(
        rec, name, (median(before["latencies"])
                    + median(after["latencies"])) / 2))
    ops = rows.ops
    plain = done["plain"]
    pairs = [a[1].cst.constraint.conjoin(b[1].cst.constraint)
             for a in rows.left[:8] for b in rows.right[:8]][:48]
    values.update(layers.constraint_probe(
        pairs, [row[1].cst.oid_text() for row in rows.left[:64]]))
    values.update({
        "core.execute_ms":
            1000.0 * median(rec.durations("sqlc.execute")),
        "sqlc.index_joins_selected": layers.plan_counts(
            optimizer.optimize(join_plan(), plain).explain())[0],
        "sqlc.sharded_joins_selected": layers.plan_counts(
            optimizer.optimize(join_plan(),
                               before["relations"]).explain())[1],
        "sqlc.index_join_ms":
            layers.index_join_ms(plain, join_predicate()),
        "sqlc.index_build_ms": layers.index_build_ms(plain["L"], "e"),
        "sqlc.index_extend_ms": 1000.0 * median(done["extend_s"]),
        "sqlc.index_extends_per_op":
            (done["ingest"].index_extends
             + sum(a.index_extends for a in done["accounts"])) / ops,
        "storage.wal_append_ms": 1000.0 * median(done["wal_s"]),
        "storage.writes_per_burst": done["writes"] / ops,
        "storage.fsyncs_per_burst": done["fsyncs"] / ops,
        "storage.snapshot_ms": 1000.0 * done["snapshot_s"],
        "storage.snapshot_bytes_per_row": done["snapshot_bytes_per_row"],
    })
    return values, tally, {"traced_ops": ops, "rows": done["rows"]}
