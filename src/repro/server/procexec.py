"""One server request, and the process executor that runs it elsewhere.

A request is one CPU-bound plan evaluation; the only thing an executor
decides is *where* it runs.  :func:`request_events` is that request —
the only loop in the server that pumps a
:class:`~repro.core.result.QueryStream` — and it yields exactly the
events a job publishes.  The thread executor feeds the live generator
to the event loop; the process executor (the GIL escape: *distinct*
concurrent queries on one interpreter gain nothing from extra cores)
is a :class:`ProcessExecutor`, one per
:class:`~repro.server.service.QueryService`, whose pool workers run the
same generator and ship its events back as a list.  Frames are
therefore byte-identical across executors by construction.

**The pool.**  A :class:`ProcessExecutor` owns one fork-started pool of
a fixed size, created by the first request (or by
:meth:`~ProcessExecutor.warm`), replaced after a mutation or a lost
worker, and joined by :meth:`~ProcessExecutor.close`.  Requests beyond
its size wait for a worker.

**Shipping strategy.**  The database never pickles per request: the
pool's initializer hands every worker the ``(db_version, db)`` staged
on its executor, and under ``fork`` that pair is inherited, not
pickled.  After a mutation the service stages the new state and the
old pool goes (:meth:`~ProcessExecutor.replace`), so the next request
forks workers that inherit the post-mutation database.  The version
check in the worker turns any remaining race into a ``stale`` reply,
and the service runs the generator itself — never a wrong answer.
What *does* cross the process boundary per request is small: the query
AST, the context options (parameter oids among them) and the guard
budgets.  Rows come back already ``dump_oid``-serialized in result
order.

**Budgets.**  The worker runs under a fresh guard carrying what is left
of every budget of the request's guard and the full remaining
deadline, counted from the submit — a request that waited for a worker
has that much less, and trips at its first checkpoint when nothing is
left.  The worker guard keeps the request's exhaustion policy (degrade
must produce the same partial rows and warnings it would in-process),
and a trip under ``fail`` ends the shipped events with an ``error``
event as it would in-process.  The worker ships its guard spend and a
fresh :class:`~repro.runtime.context.ExecutionStats` snapshot; the
parent folds them in with the generic
:meth:`~repro.runtime.context.ExecutionStats.merge`, exactly once.

**Cancellation.**  A worker cannot see
:meth:`~repro.runtime.guard.ExecutionGuard.cancel` called in the
parent.  The *cancel board* — a shared-memory byte array allocated when
this module is imported, so every fork inherits it — closes the gap:
a request reserves a slot, the worker guard polls it at every
checkpoint, and the parent's wait flips it when it sees its guard
cancelled.

**Fallbacks.**  When no worker's reply serves the request, the
executor thread runs :func:`request_events` itself, before anything is
published, and the service counts the request under one of
:data:`PROCESS_FALLBACK_REASONS`.

Platforms without ``fork`` have no pool: :func:`fork_available` is
false there and the server runs every request in its own threads.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
# By name, not ``from concurrent import futures``: that would import
# ``concurrent.futures.process`` lazily, after this module, and the
# interpreter would tear it down before a pool still alive at exit.
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, wait
from typing import Any, Iterator

from repro import lyric
from repro.model.database import Database
from repro.model.serialize import dump_oid
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.guard import ExecutionGuard
from repro.server import protocol

#: Rows per ``rows`` event — the granularity at which a request hands
#: rows to the event loop (each event becomes that many ``row``
#: frames).
ROW_BATCH = 32

#: Why no worker's reply served a process-mode request and it ran in
#: its executor thread: the request or its reply never crossed the
#: process boundary (a budget had nothing left to ship, it would not
#: pickle, or the worker died); the worker's fork-inherited database
#: predates the request; the pool could not start.
PROCESS_FALLBACK_REASONS = ("undelivered", "stale", "pool_start_failed")

#: Work budgets a worker gets what is left of; disjuncts caps a single
#: disjunction wherever it is built and is passed through whole.
_SPENT_BUDGETS = (
    ("max_pivots", "pivots"),
    ("max_branches", "branches"),
    ("max_canonical", "canonical_steps"),
)


def fork_available() -> bool:
    """Whether this platform can start the pool's workers (``fork``)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def request_events(db: Database, query_ast, translated: bool,
                   ctx: QueryContext) -> Iterator[tuple]:
    """One request, as the events its job publishes: ``("rows",
    [(values, oid), ...])`` per :data:`ROW_BATCH` rows (``dump_oid``
    serialized, in result order), ``("warning", text)`` per warning,
    then the terminal — ``("done", body)``, or ``("error", code,
    message)`` with the rows produced before the error already
    yielded.  The account is ``ctx``'s (guard, stats); the caller
    reports it."""
    rows = 0
    try:
        stream = lyric.stream(db, query_ast, translated=translated,
                              ctx=ctx)
        while batch := stream.next_batch(ROW_BATCH):
            rows += len(batch)
            yield ("rows", [
                ([dump_oid(v) for v in row.values],
                 dump_oid(row.oid) if row.oid is not None else None)
                for row in batch])
        for warning in stream.warnings:
            yield ("warning", warning)
        yield ("done", {
            "columns": list(stream.columns),
            "engine": stream.engine,
            "rows": rows,
            "partial": bool(stream.warnings),
        })
    except Exception as exc:  # noqa: BLE001 - wire / process boundary
        yield ("error", protocol.error_code(exc), str(exc))


# ---------------------------------------------------------------------------
# The cancel board (cross-process cooperative cancellation)
# ---------------------------------------------------------------------------

#: Concurrent requests that can each carry a live cancel channel.  A
#: request that finds no free slot simply runs without one (its worker
#: still terminates on its deadline).
CANCEL_SLOTS = 128

try:
    _CANCEL_BOARD = multiprocessing.RawArray("b", CANCEL_SLOTS)
except Exception:  # pragma: no cover - exotic platforms
    _CANCEL_BOARD = None

_SLOT_LOCK = threading.Lock()
_SLOTS_IN_USE: set[int] = set()


def _acquire_cancel_slot() -> int | None:
    """Reserve (and clear) a cancel-board slot, or ``None`` when the
    board is unavailable or fully busy.  A slot freed while a stale
    worker still polls it is harmless: the worker belongs to an
    abandoned request, so a spurious cancel only stops wasted work."""
    if _CANCEL_BOARD is None:
        return None
    with _SLOT_LOCK:
        for slot in range(CANCEL_SLOTS):
            if slot not in _SLOTS_IN_USE:
                _SLOTS_IN_USE.add(slot)
                _CANCEL_BOARD[slot] = 0
                return slot
    return None


def _release_cancel_slot(slot: int | None) -> None:
    if slot is None:
        return
    with _SLOT_LOCK:
        _CANCEL_BOARD[slot] = 0
        _SLOTS_IN_USE.discard(slot)


# ---------------------------------------------------------------------------
# What crosses the process boundary
# ---------------------------------------------------------------------------


def context_options(ctx: QueryContext) -> dict[str, Any]:
    """Every plain-data option of ``ctx``, as ``QueryContext`` keyword
    arguments: what a pool worker rebuilds its context from.  A
    disabled cache travels as an explicit ``None``; an enabled one is
    left out, so the worker keeps its own process-wide cache (that is
    what makes warm workers *warm*)."""
    options: dict[str, Any] = {
        "prefilter": ctx.prefilter, "indexing": ctx.indexing,
        "numeric": ctx.numeric, "use_optimizer": ctx.use_optimizer,
        "shards": ctx.shards, "params": ctx.params}
    if ctx.cache is None:
        options["cache"] = None
    if ctx.plan_cache is None:
        options["plan_cache"] = None
    return options


def _worker_limits(guard: ExecutionGuard) -> dict | None:
    """The budget dict shipped to the worker, or ``None`` when some
    budget has no spend left (the request then runs in-process, so its
    own guard trips at the usual site)."""
    limits: dict = {"on_exhaustion": guard.on_exhaustion,
                    "max_disjuncts": guard.max_disjuncts}
    if guard.deadline is not None:
        limits["deadline"] = guard.deadline - guard.elapsed()
        if limits["deadline"] <= 0:
            return None
        # What is left runs from now, not from when a worker takes the
        # request: it may queue behind others.  The monotonic clock is
        # system-wide on the platforms that fork.
        limits["submitted_at"] = time.monotonic()
    for limit_name, counter_name in _SPENT_BUDGETS:
        limit = getattr(guard, limit_name)
        if limit is None:
            continue
        limits[limit_name] = limit - getattr(guard, counter_name)
        if limits[limit_name] <= 0:
            return None
    return limits


def _guard_from_limits(limits: dict) -> ExecutionGuard:
    """The worker's guard.  When the request carries a cancel slot the
    guard polls it at every checkpoint — the parent's cancel reaches
    this process through the fork-shared board."""
    guard = ExecutionGuard(
        deadline=limits.get("deadline"),
        max_pivots=limits.get("max_pivots"),
        max_branches=limits.get("max_branches"),
        max_disjuncts=limits["max_disjuncts"],
        max_canonical=limits.get("max_canonical"),
        on_exhaustion=limits["on_exhaustion"])
    if "submitted_at" in limits:
        guard.start(at=limits["submitted_at"])
    slot = limits.get("cancel_slot")
    if slot is not None:
        guard.bind_cancel_probe(lambda: bool(_CANCEL_BOARD[slot]))
    return guard


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: ``(db_version, database)`` this worker's pool was forked with.
_INHERITED: tuple[int, Database | None] = (-1, None)


def _inherit(db_version: int, db: Database) -> None:
    """The pool initializer: keep the state the pool was forked with."""
    global _INHERITED
    _INHERITED = (db_version, db)


def _warm_task() -> int:
    """A pre-fork no-op.  The short sleep keeps each warm-up task
    occupying a worker long enough that every worker answers one."""
    time.sleep(0.02)
    return multiprocessing.current_process().pid or 0


def _serve_request(db_version: int, query_ast, translated: bool,
                   limits: dict, options: dict) -> dict:
    """The worker entry point: :func:`request_events` against the
    inherited database under the shipped budgets and a *fresh*
    ``ExecutionStats``, so the shipped snapshot is exactly this
    request's delta.  ``events`` is ``None`` when the inherited
    database predates ``db_version``."""
    version, db = _INHERITED
    if db is None or version != db_version:
        return {"events": None}
    guard = _guard_from_limits(limits)
    ctx = QueryContext(guard=guard, stats=ExecutionStats(), **options)
    with ctx.activate():
        events = list(request_events(db, query_ast, translated, ctx))
    ctx.stats.capture_guard(guard)
    return {"events": events, "spend": guard.spend(),
            "stats": ctx.stats.snapshot()}


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _gather(future, guard: ExecutionGuard | None,
            slot: int | None) -> tuple[Any, bool]:
    """Wait for one future, propagating a parent-side cancel to its
    worker through the cancel board.

    Returns ``(result, lost)``: ``result`` is ``None`` when the future
    did not deliver, and ``lost`` says a worker died (the pool is
    broken and must be replaced).  Any other failure is the future's
    own — its request or reply would not pickle — and the caller's
    in-process run will succeed or raise the same error from its own
    stack.  On cancel the worker is *not* abandoned: the board flip
    makes it stop at its next checkpoint and its outcome ships back
    normally, so the pool stays clean and the spend is still
    accounted."""
    signalled = False
    while not future.done():
        if not signalled and guard is not None and guard.cancelled \
                and slot is not None:
            _CANCEL_BOARD[slot] = 1
            signalled = True
        wait([future], timeout=0.05)
    if future.cancelled():
        return None, False
    # Inspected, not raised: raising here would tie the future, its
    # exception's traceback and this frame — and through it the
    # executor's pool — into a cycle only the collector frees.
    error = future.exception()
    if error is None:
        return future.result(), False
    return None, isinstance(error, BrokenExecutor)


def _absorb(ctx: QueryContext, outcome: dict) -> None:
    """Fold a worker's outcome into the request's context."""
    snapshot = outcome["stats"]
    ctx.guard.absorb_spend(outcome["spend"])
    # One generic merge covers every declared counter — including
    # any added after this code was written.  The fields a merge skips
    # (``optimized``, row counts) are set by the engine, not summed;
    # the snapshot is this request's own account, so they copy over.
    ctx.stats.merge(snapshot)
    for f in dataclasses.fields(ctx.stats):
        if f.metadata.get("merge") == "skip":
            setattr(ctx.stats, f.name, snapshot[f.name])
    # The cache object still needs the worker deltas (the entries a
    # worker wrote stay in that worker).  Bounds traffic, by contrast,
    # lives *only* in ExecutionStats.
    if ctx.cache is not None:
        ctx.cache.absorb({
            "hits": snapshot.get("cache_hits", 0),
            "misses": snapshot.get("cache_misses", 0),
            "evictions": snapshot.get("cache_evictions", 0),
            "simplex_saved": snapshot.get("cache_simplex_saved", 0),
        })


class ProcessExecutor:
    """One service's pool of ``workers`` fork-started processes.

    ``account`` is the service's
    :class:`~repro.server.service.ServiceStats`: every request is
    counted there once, as served by a worker or as a fallback under
    its reason, and every pool the executor forks as a cold start.
    """

    def __init__(self, workers: int, db_version: int, db: Database,
                 account) -> None:
        self.workers = workers
        self._account = account
        #: ``(db_version, db)`` the next pool forks with.
        self._staged = (db_version, db)
        self._pool: ProcessPoolExecutor | None = None
        #: Held while a request takes the pool and submits to it, so a
        #: pool is forked once and never replaced under a submit.
        #: Waiting for the reply happens outside it.
        self._lock = threading.Lock()

    def _take_pool(self) -> tuple[ProcessPoolExecutor, bool]:
        """The pool, forked now when there is none; ``(pool, cold)``.
        Called under ``_lock``."""
        if self._pool is not None:
            return self._pool, False
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_inherit, initargs=self._staged)
        self._account.note_cold_start()
        return self._pool, True

    def _discard(self, pool: ProcessPoolExecutor | None) -> None:
        """Stop ``pool`` and join its workers; the next request forks a
        fresh one."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def warm(self) -> int:
        """Fork the pool now and have every worker answer once, so the
        first request does not pay the cold start.  Returns the number
        of distinct workers that answered."""
        with self._lock:
            pool, _cold = self._take_pool()
            pending = [pool.submit(_warm_task)
                       for _ in range(self.workers)]
        pids = {_gather(future, None, None)[0] for future in pending}
        return len(pids - {None})

    def run(self, ctx: QueryContext, db_version: int, query_ast,
            translated: bool) -> list[tuple] | None:
        """The request on a worker, waiting for one when all are busy:
        the events it shipped (its stats and spend already absorbed
        into ``ctx``), or ``None`` when no worker's reply served the
        request — nothing of it was absorbed, so the caller runs it
        itself without double-charging."""
        limits = _worker_limits(ctx.guard)
        if limits is None:
            return self._fell_back(ctx, "undelivered")
        slot = _acquire_cancel_slot()
        limits["cancel_slot"] = slot
        pool = None
        try:
            try:
                with self._lock:
                    pool, cold = self._take_pool()
                    future = pool.submit(
                        _serve_request, db_version, query_ast,
                        translated, limits, context_options(ctx))
            except (OSError, RuntimeError):
                # Fork limits, sandboxing, or a pool found dead at
                # submit.
                self._discard(pool)
                return self._fell_back(ctx, "pool_start_failed")
            outcome, lost = _gather(future, ctx.guard, slot)
        finally:
            _release_cancel_slot(slot)
        if cold:
            ctx.stats.pool_cold_starts += 1
        if lost:
            self._discard(pool)
        if outcome is None:
            return self._fell_back(ctx, "undelivered")
        if outcome["events"] is None:
            return self._fell_back(ctx, "stale")
        ctx.stats.pool_dispatches += 1
        self._account.note_process(None)
        _absorb(ctx, outcome)
        return outcome["events"]

    def _fell_back(self, ctx: QueryContext, reason: str) -> None:
        ctx.stats.parallel_fallbacks += 1
        self._account.note_process(reason)
        return None

    def replace(self, db_version: int, db: Database) -> None:
        """Stage the state the next pool forks with and stop the
        current one (after a mutation: its workers hold the old
        database)."""
        with self._lock:
            self._staged = (db_version, db)
        self._discard(self._pool)

    def close(self) -> None:
        """Stop the pool and join its workers and manager thread: left
        running, the interpreter's exit hook could wake the manager
        while it closes its wakeup pipe (``OSError: [Errno 9]`` on
        stderr)."""
        self._discard(self._pool)
