"""Shared plumbing of the benchmark: paths, the metric declaration,
order statistics, cache clearing, the correctness byte form, scratch
directories and the store leg every database workload runs."""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TypeVar

from repro.constraints import matrix
from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.model.database import Database
from repro.model.serialize import (
    dump_object,
    dump_schema,
    load_schema,
)
from repro.runtime.cache import clear_global_cache
from repro.runtime.plancache import clear_global_plan_cache
from repro.sqlc import index
from repro.storage import Store
from repro.workloads.random_constraints import make_variables

T = TypeVar("T")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: Everything the benchmark writes (scratch stores, the served
#: database file, traces, the last results) lands here; git ignores it.
OUT_DIR = os.path.join(BENCH_DIR, "out")


def load_spec() -> dict:
    """``BENCHMARK.json``: the one declaration of workloads, metric
    names, units and bounds.  The runner reads units from it and
    refuses to print a metric it does not declare."""
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


median = statistics.median
mean = statistics.fmean


# -- the machine's speed, and times at the reference speed -------------------


def _yardstick_matrix() -> list[list[Fraction]]:
    rng = random.Random(5)
    return [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                      rng.randint(1, 9)) for _ in range(9)]
            for _ in range(8)]


_YARDSTICK_MATRIX = _yardstick_matrix()

#: Yardstick samples taken on either side of a timed step; a step
#: that is a sequence of operations has one between every two of them
#: as well, and each operation is set against the ``2 * BURST`` samples
#: nearest to it.
BURST = 5


class Yardstick:
    """The machine's speed while a pass runs, from a fixed job timed
    between the pass's own steps.

    The machines this benchmark runs on are shared: for stretches of
    seconds to tens of minutes the same single-threaded work takes 1.3
    to 2 times as long (in wall and in CPU time alike; nothing in the
    guest shows why), so two runs of the same code disagree by more
    than any bound unless the machine's speed is measured with them.
    The job is a Gaussian elimination on a small matrix of ``Fraction``
    objects — interpreter-bound, allocation-heavy and small in
    footprint, like the program's own work — and takes about 2 ms.
    Measured against a tight integer loop and against two jobs with
    larger working sets over 22 minutes of a disturbed machine, it was
    the one whose slowdown followed the workloads': ``office_mix``'s
    block time varied by 1.62x raw and by 1.10x once divided by it.

    Every timing of a pass is divided by the *slowdown* around it: the
    mean time of the nearest samples relative to ``REFERENCE_S``.  That
    makes it a time *at the reference speed*.  The job uses the
    standard library only, so no change to the program moves it."""

    #: Seconds the job takes between the operations of a pass on the
    #: baseline machine (2 vCPUs, Python 3.11) when nothing disturbs
    #: it: on that machine, undisturbed, reported times are wall times.
    REFERENCE_S = 0.00175

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self._eliminate()
            self.seconds.append(time.perf_counter() - start)

    def timed(self, step: Callable[[], T]) -> tuple[T, float]:
        """Run ``step`` between two bursts of samples; ``(its result,
        its seconds at the reference speed)``."""
        (result,), (seconds,) = self.timed_each([step])
        return result, seconds

    def timed_each(self, steps: Iterable[Callable[[], T]]
                   ) -> tuple[list[T], list[float]]:
        """Run ``steps`` one after the other, a burst of samples before
        the first and after the last and one sample between every two;
        ``(results, seconds at the reference speed per step)``."""
        results = []
        sequence = Sequence(self)
        for step in steps:
            sequence.start()
            results.append(step())
            sequence.stop()
        return results, sequence.finish()

    def at_reference(self, wall: float, before: int, after: int) -> float:
        """``wall`` seconds, measured between sample ``before`` and
        sample ``after``, at the reference speed: set against the
        ``BURST`` samples on either side and any taken meanwhile."""
        near = self.seconds[max(0, before - BURST):after + BURST]
        return wall * self.REFERENCE_S / mean(near)

    @property
    def slowdown(self) -> float:
        """Over all samples so far: the provenance line reports it."""
        return mean(self.seconds) / self.REFERENCE_S

    @staticmethod
    def _eliminate() -> list:
        m = [row[:] for row in _YARDSTICK_MATRIX]
        for col in range(8):
            pivot = next(r for r in range(col, 8) if m[r][col] != 0)
            m[col], m[pivot] = m[pivot], m[col]
            inverse = 1 / m[col][col]
            m[col] = [value * inverse for value in m[col]]
            for r in range(8):
                if r != col and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        return m


class WallClock(Yardstick):
    """A yardstick that takes no samples and leaves every time as
    measured: the traced run's, whose figures are compared with each
    other and not across runs."""

    def sample(self, count: int = 1) -> None:
        pass

    def at_reference(self, wall: float, before: int, after: int) -> float:
        return wall


class Sequence:
    """Steps timed one after the other against a yardstick, for a
    caller that runs them itself: ``start()`` and ``stop()`` around
    each, then ``finish()`` for the seconds per step at the reference
    speed.  A burst of samples precedes the first step and follows the
    last, one sample lies between every two, and a step may take
    samples of its own (a nested sequence)."""

    def __init__(self, yardstick: Yardstick):
        self.yardstick = yardstick
        self.steps: list[tuple[float, int, int]] = []
        yardstick.sample(BURST - 1)

    def start(self) -> None:
        self.yardstick.sample()
        self._before = len(self.yardstick.seconds)
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.steps.append((time.perf_counter() - self._started,
                           self._before, len(self.yardstick.seconds)))

    def finish(self) -> list[float]:
        self.yardstick.sample(BURST)
        return [self.yardstick.at_reference(*step) for step in self.steps]


# -- passes and their summary ------------------------------------------------


@dataclass
class Pass:
    """What one pass measured, every time at the reference speed (see
    ``Yardstick``).  Every pass of a run does the same work from the
    same state (caches cleared, inputs generated again from the seed),
    so position ``i`` of ``latencies_ms`` and of ``cold_ms`` is the
    same operation in each."""

    #: The machine's mean slowdown over the pass (for the record).
    slowdown: float
    setup_s: float
    #: Each template's first execution with every cache empty.
    cold_ms: list[float]
    #: The block of operations, in order.
    latencies_ms: list[float]
    ingest_s_per_row: float
    restore_s_per_row: float
    disk_bytes_per_row: float


def summarise(passes: list[Pass]) -> dict[str, float]:
    """The end-to-end metrics of a run but memory: per operation (and
    per set-up, cold execution, ingest and restore) the median over the
    passes; the latency quantiles and the throughput are those of the
    block made of these medians."""
    block = [median(column) for column in
             zip(*(p.latencies_ms for p in passes), strict=True)]
    cold = [median(column) for column in
            zip(*(p.cold_ms for p in passes), strict=True)]
    return {
        "setup_s": median(p.setup_s for p in passes),
        "ops_per_s": 1000.0 * len(block) / sum(block),
        "op_p50_ms": median(block),
        "op_p90_ms": p90(block),
        # Mean over the templates of each one's first execution.
        "cold_op_p50_ms": mean(cold),
        "ingest_rows_per_s":
            1 / median(p.ingest_s_per_row for p in passes),
        "restore_rows_per_s":
            1 / median(p.restore_s_per_row for p in passes),
        "disk_bytes_per_row": median(p.disk_bytes_per_row for p in passes),
    }


def p90(values: list[float]) -> float:
    """The 90th percentile by rank.  With the >= 110 operations every
    workload's block holds, at least ten samples lie beyond it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


class Clock:
    """The time box of a run's timed region: ``more()`` is asked
    between passes and says whether another one is due — until
    ``seconds`` of timed work are in and at least ``min_passes`` passes,
    or the run has taken so long overall that it must end anyway (the
    contract caps a run's wall time)."""

    def __init__(self, seconds: float, min_passes: int):
        self.seconds = seconds
        self.min_passes = min_passes
        self.started = time.perf_counter()
        self.timed = 0.0
        self.passes = 0

    def add(self, timed_seconds: float) -> None:
        self.timed += timed_seconds
        self.passes += 1

    def more(self) -> bool:
        if time.perf_counter() - self.started >= 4 * self.seconds + 30:
            return False
        return self.passes < self.min_passes or self.timed < self.seconds


# -- program state the benchmark resets between measurements ---------------


def clear_caches() -> None:
    """Drop every process-wide cache of the program: constraint
    results, compiled plans, box indexes, packed matrices."""
    clear_global_cache()
    clear_global_plan_cache()
    index.clear_index_cache()
    matrix.clear_matrix_cache()


@contextlib.contextmanager
def one_cpu() -> Iterator[int | None]:
    """Keep this process on one CPU (the highest it may use) for the
    extent: single-threaded work then sees no scheduler migrations.
    Yields the CPU, or ``None`` where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield max(allowed)
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- correctness ------------------------------------------------------------


def rows_bytes(result) -> bytes:
    """The canonical byte form results are compared in (the form
    ``tests/server/harness.py`` uses)."""
    return "\n".join(
        sorted(f"{r.oid!r}|{r.values!r}" for r in result)).encode()


def relation_bytes(relation) -> bytes:
    """Same idea for a flat relation: its rows, order-insensitive."""
    return "\n".join(sorted(repr(tuple(row)) for row in relation)
                     ).encode()


@dataclass
class Tally:
    """Operations attempted and failed (errors, refusals, wrong
    results) over a whole run, inside and outside timed regions."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, note: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, same: bool, note: str) -> None:
        if same:
            self.ok()
        else:
            self.fail(note)


# -- sparse 1-D boxes ----------------------------------------------------------


def cell_boxes(count: int, overlaps: int, rng: random.Random
               ) -> tuple[list[ConjunctiveConstraint],
                          list[ConjunctiveConstraint]]:
    """Two sides of ``count`` small 1-D boxes each (width 1 to 5, like
    ``random_constraints.scattered_boxes``) of which exactly
    ``overlaps`` left/right pairs intersect and no two boxes of one
    side do.

    The line is cut into ``2 * count`` cells of width 20 in seeded
    random order; every box stays inside its own cell, and an
    overlapping right box shares the cell (and the centre) of a left
    one.  A sparse join's work grows with the number of overlapping
    pairs — multiplied by the cross product when the query comes from
    LyriC text — so with independently scattered boxes each seed times
    a different amount of work (25 % between seeds, measured); here
    every seed draws different boxes but the same amount of it."""
    variable = make_variables(1)[0]
    cells = list(range(-count, count))
    rng.shuffle(cells)

    def box(cell: int, centre: Fraction | None = None):
        if centre is None:
            centre = Fraction(20 * cell + rng.randint(4, 16))
        half = Fraction(rng.randint(1, 5), 2)
        return centre, ConjunctiveConstraint([
            LinearConstraint.build(variable, Relop.GE, centre - half),
            LinearConstraint.build(variable, Relop.LE, centre + half)])

    lefts = [box(cell) for cell in cells[:count]]
    rights = [box(0, centre) for centre, _ in lefts[:overlaps]] \
        + [box(cell) for cell in cells[count:2 * count - overlaps]]
    rng.shuffle(lefts)
    rng.shuffle(rights)
    return [b for _, b in lefts], [b for _, b in rights]


# -- scratch space -----------------------------------------------------------


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A fresh directory under ``bench/out`` (the benchmark writes
    nowhere else), removed on the way out, failure included."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


# -- the store leg of a database workload ------------------------------------


@dataclass
class StoreLeg:
    """One pass of: create a store, append every object of ``db`` to
    it, flush, snapshot at 80 % of the objects, close, reopen."""

    rows: int
    ingest_s: float
    restore_s: float
    disk_bytes: int
    snapshot_s: float
    snapshot_bytes: int
    snapshot_rows: int
    wal_path: str
    writes: int
    fsyncs: int
    same: bool


def store_leg(db: Database, path: str, yardstick: Yardstick,
              keep: bool = False) -> StoreLeg:
    """What a restart costs this workload: the database's objects go
    into a fresh :class:`Store` one ``add_object`` (one WAL record)
    each, a snapshot lands at 80 % so the reopen replays a snapshot
    *and* a log, and ``Store.open`` is timed with every cache of the
    program empty.  ``same`` says whether the reopened database holds
    the same objects.  The ingest and restore times are at the
    reference speed.  Leaves the caches cleared."""
    objects = list(db.objects())
    items = [(obj.oid, obj.class_name,
              {name: obj.get(name) for name in obj.attribute_names})
             for obj in objects]
    cut = int(len(items) * 0.8)
    schema = load_schema(dump_schema(db.schema))
    store = Store.create(path, db=Database(schema), durability="batch")
    try:
        def append(batch: list) -> None:
            for oid, class_name, values in batch:
                store.db.add_object(oid, class_name, values)

        _, head_s = yardstick.timed(lambda: append(items[:cut]))
        snap_started = time.perf_counter()
        store.snapshot()
        snapshot_s = time.perf_counter() - snap_started

        def finish() -> None:
            append(items[cut:])
            store.flush()
        _, tail_s = yardstick.timed(finish)
        writes, fsyncs = store.io.writes, store.io.fsyncs
        generation = store.generation
    finally:
        store.close()
    disk = dir_bytes(path)
    # A restart is a new process: nothing the writer cached survives.
    clear_caches()
    reopened, restore = yardstick.timed(lambda: Store.open(path))
    try:
        same = [dump_object(o) for o in reopened.db.objects()] \
            == [dump_object(o) for o in objects]
    finally:
        reopened.close()
    leg = StoreLeg(
        rows=len(objects), ingest_s=head_s + tail_s, restore_s=restore,
        disk_bytes=disk, snapshot_s=snapshot_s, snapshot_rows=cut,
        snapshot_bytes=os.path.getsize(os.path.join(
            path, f"snapshot-{generation:06d}.lyrc")),
        wal_path=os.path.join(path, f"wal-{generation:06d}.log"),
        writes=writes, fsyncs=fsyncs, same=same)
    if not keep:
        shutil.rmtree(path, ignore_errors=True)
    return leg
