"""Partitioned parallel evaluation over worker processes.

Large row filters (the exact phase of :class:`~repro.sqlc.algebra.
IndexJoin` and big ``Select`` nodes) and the server's whole-query
requests run on **one parallel region**, :func:`dispatch`: pro-rate
the guard, reserve a cancel slot, submit, gather in task order, absorb
every delivered outcome exactly once.  For :func:`filter_rows` the
region goes on (:func:`_run_region`) to recompute whatever was not
delivered in-process, under the parent guard, re-raise the first
worker exhaustion and checkpoint — so serial evaluation is the only
fallback there is, and every fallback is counted under a reason
(``stats()["fallback_reasons"]``).

**Two transports, chosen by the caller, never probed.**

* **Fork-inherit** (:func:`filter_rows`) — a one-shot pool is forked
  for the region, so the workers *inherit* the predicate, the rows and
  the whole parent context (database, params, caches, options); only
  chunk bounds and kept indices cross the pickle boundary.  Translator
  predicates are closures over the constraint engine and cannot travel
  any other way, and what a filter spends its time on — exact
  elimination — dwarfs the fork.
* **Persistent pool** (the server's process executor) — warm workers
  reused across requests.  ``fn``, each task and each value are
  pickled; the worker trusts nothing it inherited and rebuilds its
  context from :func:`context_options`, which carries *every*
  plain-data option of the parent.  A task or value that will not
  pickle fails that one future only; it counts as undelivered.

**Determinism.**  Values come back in task order (filter chunks are
contiguous slices), so the output equals the serial evaluation's.
Runs under a :class:`~repro.runtime.faults.FaultPlan` are forced
serial: a plan belongs to one guard and a worker gets a fresh guard,
so rows evaluated in a worker would never see the plan's faults.

**Budgets.**  Each worker runs under a fresh guard carrying
``remaining // tasks`` of every *work* budget of the parent's guard
(pivots, branches, canonical; disjuncts caps one disjunction and
passes through whole) and the full remaining deadline, counted from
the dispatch — a task that waited for a worker has that much less, and
trips at its first checkpoint when nothing is left.  Worker guards
``fail`` on exhaustion unless the dispatch says otherwise, so a trip
travels back as a plain dict (:class:`~repro.errors.ResourceExhausted`
has keyword-only constructors and does not pickle); the parent
re-raises the first one in task order and the caller's own policy
applies at the usual engine boundary.

**Counters.**  Each worker ships its fresh
:class:`~repro.runtime.context.ExecutionStats` snapshot and guard
spend; the parent folds them in with the generic
:meth:`~repro.runtime.context.ExecutionStats.merge`, so counters added
later survive the round-trip with no change here.

**Cancellation.**  A worker cannot see
:meth:`~repro.runtime.guard.ExecutionGuard.cancel` called in the
parent.  The *cancel board* — a shared-memory byte array allocated at
import time, so every fork inherits it — closes the gap: the region
reserves a slot, the worker guard polls it at every checkpoint, and
the gather loop flips it when it sees the parent guard cancelled.

Platforms without ``fork`` evaluate serially.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
# By name, not ``from concurrent import futures``: that would import
# ``concurrent.futures.process`` lazily, after this module, and the
# interpreter would tear it down before a pool still alive at exit.
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, wait
from typing import Any, Callable, Sequence

import repro.errors as errors_mod
from repro.errors import QueryCancelled, ResourceExhausted
from repro.runtime import context as context_mod
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.guard import ExecutionGuard

#: Don't partition filters smaller than this: pool startup dominates.
PARTITION_THRESHOLD = 64

#: Budgets divided among workers; disjuncts caps a single disjunction
#: wherever it is built and is passed through whole.
_DIVIDED_BUDGETS = (
    ("max_pivots", "pivots"),
    ("max_branches", "branches"),
    ("max_canonical", "canonical_steps"),
)

#: Why a region (or part of one) ran in-process: a parent budget had
#: nothing left to split; the pool could not start or was found dead
#: at submit; an outcome never came back (a worker died, or a task or
#: value would not pickle).
FALLBACK_REASONS = ("no_headroom", "pool_start_failed", "worker_lost")


def _zeroed_stats() -> dict[str, Any]:
    return {"runs": 0, "partitions": 0, "max_workers": 0,
            "fallbacks": 0, "pool_dispatches": 0, "pool_cold_starts": 0,
            "scatters": 0,
            "fallback_reasons": dict.fromkeys(FALLBACK_REASONS, 0)}


_stats = _zeroed_stats()


def stats() -> dict[str, Any]:
    """Cumulative counters: ``runs`` (parallel regions executed),
    ``partitions`` (tasks dispatched), ``max_workers`` (widest region),
    ``fallbacks`` (regions that ran wholly or partly in-process) and
    ``fallback_reasons`` (the same count by :data:`FALLBACK_REASONS`),
    ``pool_dispatches`` (tasks delivered by the persistent pool),
    ``pool_cold_starts`` (persistent pools created), ``scatters``
    (regions sent to the persistent pool)."""
    return {**_stats, "fallback_reasons": dict(_stats["fallback_reasons"])}


def reset_stats() -> None:
    _stats.update(_zeroed_stats())


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


def should_partition(n_rows: int,
                     ctx: QueryContext | None = None) -> bool:
    """Partition this filter?  Requires enough rows to amortize the
    fork, parallelism on the (given or ambient) context, no FaultPlan
    on the guard (its faults fire only on the guard that carries it),
    a ``fork`` start method, and not already being inside a worker."""
    ctx = context_mod.resolve(ctx)
    if (n_rows < PARTITION_THRESHOLD or _IN_WORKER
            or ctx.parallelism < 2 or ctx.faults is not None):
        return False
    return _fork_available()


# ---------------------------------------------------------------------------
# The cancel board (cross-process cooperative cancellation)
# ---------------------------------------------------------------------------

#: Concurrent regions that can each carry a live cancel channel.  A
#: region that finds no free slot simply runs without one (its workers
#: still terminate on their pro-rated deadline).
CANCEL_SLOTS = 128

try:
    #: Allocated at import time — *before* any pool can fork — so every
    #: worker inherits the same shared mapping and parent writes are
    #: visible worker-side.
    _CANCEL_BOARD = multiprocessing.RawArray("b", CANCEL_SLOTS)
except Exception:  # pragma: no cover - exotic platforms
    _CANCEL_BOARD = None

_SLOT_LOCK = threading.Lock()
_SLOTS_IN_USE: set[int] = set()


def acquire_cancel_slot() -> int | None:
    """Reserve (and clear) a cancel-board slot, or ``None`` when the
    board is unavailable or fully busy.  A slot freed while a stale
    worker still polls it is harmless: the worker belongs to an
    abandoned region, so a spurious cancel only stops wasted work."""
    if _CANCEL_BOARD is None:
        return None
    with _SLOT_LOCK:
        for slot in range(CANCEL_SLOTS):
            if slot not in _SLOTS_IN_USE:
                _SLOTS_IN_USE.add(slot)
                _CANCEL_BOARD[slot] = 0
                return slot
    return None


def release_cancel_slot(slot: int | None) -> None:
    if slot is None or _CANCEL_BOARD is None:
        return
    with _SLOT_LOCK:
        _CANCEL_BOARD[slot] = 0
        _SLOTS_IN_USE.discard(slot)


def signal_cancel(slot: int | None) -> None:
    """Flip a slot: every worker guard bound to it cancels at its next
    checkpoint."""
    if slot is not None and _CANCEL_BOARD is not None:
        _CANCEL_BOARD[slot] = 1


def slot_cancelled(slot: int | None) -> bool:
    return (slot is not None and _CANCEL_BOARD is not None
            and bool(_CANCEL_BOARD[slot]))


# ---------------------------------------------------------------------------
# Worker pools
# ---------------------------------------------------------------------------


def _warm_task() -> int:
    """A pre-fork no-op.  The short sleep keeps each warm-up task
    occupying a worker long enough that every submit sees no idle
    worker and spawns a fresh process (the executor forks lazily)."""
    time.sleep(0.02)
    return multiprocessing.current_process().pid or 0


class WorkerPool:
    """A fork-based worker pool: the persistent one (:func:`get_pool`)
    or a region's one-shot.

    Thin wrapper over :class:`~concurrent.futures.ProcessPoolExecutor`
    carrying its nominal size (executors don't expose theirs) so
    :func:`get_pool` can decide when a bigger pool is needed.
    """

    __slots__ = ("workers", "_executor")

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"))

    def submit(self, fn, /, *args):
        return self._executor.submit(fn, *args)

    def warm(self) -> int:
        """Pre-fork the pool's workers now (they normally spawn on
        first dispatch, which PR 8 measured as a 6x cold-start penalty
        on the first query).  Returns the number of distinct worker
        processes that answered."""
        pids, _lost = _gather(
            [self.submit(_warm_task) for _ in range(self.workers)],
            None, None)
        return len(set(pids) - {None})

    def shutdown(self, wait: bool = False) -> None:
        """Cancel what has not started and stop the workers; ``wait``
        joins the executor's manager thread (and so its workers)."""
        self._executor.shutdown(wait=wait, cancel_futures=True)


_POOL: WorkerPool | None = None

#: Guards creation/growth/discard of the process-wide pool: concurrent
#: server sessions reach :func:`get_pool` from executor threads, and an
#: unsynchronized grow would leak (and double-fork) executors.
#: ``submit`` on the returned pool needs no extra locking —
#: ``ProcessPoolExecutor`` is itself thread-safe.
_POOL_LOCK = threading.Lock()


def get_pool(min_workers: int) -> tuple[WorkerPool, bool]:
    """The process-wide pool, created (or grown) lazily.  Returns
    ``(pool, cold)`` — ``cold`` when this call had to (re)create it.
    Growing replaces the pool: warm workers are cheap to refork and a
    single pool keeps the process-count bound obvious."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL.workers >= min_workers:
            return _POOL, False
        if _POOL is not None:
            _POOL.shutdown()
        _POOL = WorkerPool(min_workers)
        _stats["pool_cold_starts"] += 1
        return _POOL, True


def warm(workers: int) -> int:
    """Create (or grow) the process-wide pool to ``workers`` and
    pre-fork every worker (``repro serve --warm-pool``).  Returns the
    number of workers that answered the warm-up, 0 when ``fork`` is
    unavailable."""
    if workers < 1 or not _fork_available():
        return 0
    pool, _cold = get_pool(workers)
    return pool.warm()


def shutdown_pool(wait: bool = False) -> None:
    """Discard the persistent pool (tests; lost-worker recovery; the
    server after a mutation; ``wait`` when the server closes).  The
    next pool dispatch cold-starts a fresh one."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait)
            _POOL = None


# ---------------------------------------------------------------------------
# The parallel region
# ---------------------------------------------------------------------------

#: ``(ctx, fn)`` a fork-inherit region publishes for the workers its
#: submits fork; ``None`` otherwise.
_INHERITED: tuple[QueryContext, Callable] | None = None

#: Held while a region takes its pool, publishes :data:`_INHERITED` and
#: submits: every worker forks inside ``submit`` (all at the first one
#: on CPython >= 3.11, one per submit before), so a worker can only
#: ever inherit its own region's payload — never another thread's,
#: never a cleared one — and no other region can replace the persistent
#: pool between taking it and submitting to it.  Gathering happens
#: outside it.
_FORK_LOCK = threading.Lock()

#: True inside a worker process — suppresses nested regions.
_IN_WORKER = False


def fork_safe_lock() -> threading.Lock:
    """A lock for a process-wide structure that workers use too: every
    fork first waits for it, so no child starts with a copy held by a
    thread that does not exist there.  The hooks stay registered for
    good — module-level locks only, and never fork while holding
    one.  Where the platform cannot fork it is a plain lock."""
    lock = threading.Lock()
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(before=lock.acquire,
                            after_in_parent=lock.release,
                            after_in_child=lock.release)
    return lock


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


def _worker_limits(guard: ExecutionGuard | None, tasks: int,
                   on_exhaustion: str) -> dict | None:
    """The pro-rated budget dict shipped to each worker — empty for
    unguarded workers, ``None`` when some budget has no spend left (the
    region then runs in-process so the parent guard trips at its usual
    site)."""
    if guard is None:
        return {}
    limits: dict = {"on_exhaustion": on_exhaustion,
                    "max_disjuncts": guard.max_disjuncts}
    if guard.deadline is not None:
        limits["deadline"] = guard.deadline - guard.elapsed()
        if limits["deadline"] <= 0:
            return None
        # What is left runs from now, not from when a worker takes the
        # task: a pool task may queue behind others.  The monotonic
        # clock is system-wide on the platforms that fork.
        limits["dispatched_at"] = time.monotonic()
    for limit_name, counter_name in _DIVIDED_BUDGETS:
        limit = getattr(guard, limit_name)
        if limit is None:
            continue
        remaining = limit - getattr(guard, counter_name)
        if remaining <= 0:
            return None
        limits[limit_name] = max(1, remaining // tasks)
    return limits


def _fell_back(ctx: QueryContext, reason: str) -> str:
    _stats["fallbacks"] += 1
    _stats["fallback_reasons"][reason] += 1
    ctx.stats.parallel_fallbacks += 1
    return reason


def _gather(pending: list, guard: ExecutionGuard | None,
            slot: int | None) -> tuple[list, bool]:
    """Collect results in submit order, propagating a parent-side
    cancel to the workers through the cancel board.

    Returns ``(results, lost)``: ``results[i]`` is ``None`` for every
    future that did not deliver, and ``lost`` says a worker died (the
    executor is broken and must be discarded).  Any other failure is
    that one future's — its task or value would not pickle, or ``fn``
    raised something a worker does not translate — and the caller's
    in-process recomputation will succeed or raise the same error from
    the parent's own stack.  On cancel the workers are *not*
    abandoned: the board flip makes each one raise ``QueryCancelled``
    at its next checkpoint and its error outcome ships back normally,
    so the pool stays clean and the spend is still accounted."""
    results: list = [None] * len(pending)
    lost = signalled = False
    for i, future in enumerate(pending):
        while not future.done():
            if not signalled and guard is not None and guard.cancelled:
                signal_cancel(slot)
                signalled = True
            wait([future], timeout=0.05)
        if future.cancelled():
            continue
        # Inspected, not raised: raising here would tie the future,
        # its exception's traceback and this frame — and through it the
        # caller's pool — into a cycle only the collector frees.
        error = future.exception()
        if error is None:
            results[i] = future.result()
        elif isinstance(error, BrokenExecutor):
            lost = True
    return results, lost


def dispatch(fn: Callable, tasks: Sequence[tuple], ctx: QueryContext,
             width: int, *, inherit: bool = False,
             on_exhaustion: str = "fail"
             ) -> tuple[list[dict | None], str | None]:
    """Run ``fn(*task)`` for every task in up to ``width`` worker
    processes — the one parallel region every caller shares.

    Returns ``(outcomes, reason)``.  ``outcomes[i]`` is task *i*'s
    worker outcome — ``value``, or ``error`` (a worker guard's trip as
    a plain dict) — already absorbed into ``ctx`` (guard spend, stats,
    cache traffic) exactly once, or ``None`` when the task was not
    delivered; nothing of an undelivered task is absorbed, so the
    caller may recompute it without double-charging.
    ``reason`` names the fallback (:data:`FALLBACK_REASONS`) when any
    outcome is ``None``, else ``None``.

    ``inherit=True`` forks a one-shot pool whose workers inherit ``fn``
    and ``ctx`` themselves (``fn`` may be a closure); otherwise ``fn``
    is pickled to the persistent pool with :func:`context_options`.
    ``on_exhaustion`` is the worker guards' policy: ``"fail"`` for a
    *part* of a query, the request's own when the task *is* the query.
    """
    global _INHERITED
    guard = ctx.guard
    outcomes: list[dict | None] = [None] * len(tasks)
    limits = _worker_limits(guard, len(tasks), on_exhaustion)
    if limits is None:
        return outcomes, _fell_back(ctx, "no_headroom")
    slot = acquire_cancel_slot() if guard is not None else None
    if slot is not None:
        limits["cancel_slot"] = slot
    shipped_fn, options = (None, None) if inherit \
        else (fn, context_options(ctx))
    one_shot = None
    try:
        try:
            with _FORK_LOCK:
                if inherit:
                    pool = one_shot = WorkerPool(width)
                    cold = False
                    _INHERITED = (ctx, fn)
                else:
                    pool, cold = get_pool(width)
                try:
                    pending = [pool.submit(_run_task, shipped_fn, task,
                                           limits, options)
                               for task in tasks]
                finally:
                    _INHERITED = None
        except (OSError, RuntimeError):
            # Fork limits, sandboxing, or a pool found dead at submit.
            if not inherit:
                shutdown_pool()
            return outcomes, _fell_back(ctx, "pool_start_failed")
        outcomes, lost = _gather(pending, guard, slot)
    finally:
        release_cancel_slot(slot)
        if one_shot is not None:
            one_shot.shutdown()

    delivered = [o for o in outcomes if o is not None]
    _stats["runs"] += 1
    _stats["partitions"] += len(tasks)
    _stats["max_workers"] = max(_stats["max_workers"], width)
    ctx.stats.parallel_runs += 1
    ctx.stats.partitions += len(tasks)
    ctx.stats.workers = max(ctx.stats.workers, width)
    if not inherit:
        _stats["scatters"] += 1
        _stats["pool_dispatches"] += len(delivered)
        ctx.stats.pool_dispatches += len(delivered)
        if cold:
            ctx.stats.pool_cold_starts += 1
        if lost:
            shutdown_pool()
    for outcome in delivered:
        _absorb_outcome(ctx, guard, outcome)
    if len(delivered) < len(tasks):
        return outcomes, _fell_back(ctx, "worker_lost")
    return outcomes, None


def _absorb_outcome(ctx: QueryContext, guard: ExecutionGuard | None,
                    outcome: dict) -> None:
    """Fold ONE worker outcome into the parent context."""
    snapshot = outcome["stats"]
    if guard is not None:
        guard.absorb_spend(outcome["spend"])
    # One generic merge covers every declared counter — including
    # any added after this code was written.
    ctx.stats.merge(snapshot)
    # The cache object still needs the worker deltas (the entries
    # and cumulative counters a worker wrote die with its process
    # or stay in the pool worker).  Bounds traffic, by contrast,
    # lives *only* in ExecutionStats.
    cache = ctx.cache
    if cache is not None:
        cache.absorb({
            "hits": snapshot.get("cache_hits", 0),
            "misses": snapshot.get("cache_misses", 0),
            "evictions": snapshot.get("cache_evictions", 0),
            "simplex_saved": snapshot.get("cache_simplex_saved", 0),
        })


def _run_region(fn: Callable, tasks: Sequence[tuple],
                ctx: QueryContext, width: int,
                inherit: bool = False) -> list:
    """:func:`dispatch`, then the values in task order: an undelivered
    task is recomputed here, in-process, so its spend ticks the parent
    guard directly (no pro-rating, no second absorption) and an
    exhaustion raises where the serial run would have reached; the
    first worker exhaustion re-raises; then the guard's
    cancellation/deadline checkpoint runs (a worker without a cancel
    slot can't see a cancel issued after it was handed its task)."""
    outcomes, _reason = dispatch(fn, tasks, ctx, width, inherit=inherit)
    values: list = []
    for task, outcome in zip(tasks, outcomes):
        if outcome is None:
            values.append(fn(*task))
        elif outcome["error"] is not None:
            raise _rebuild_exhaustion(ctx.guard, outcome["error"])
        else:
            values.append(outcome["value"])
    if ctx.guard is not None:
        ctx.guard.checkpoint("parallel-merge")
    return values


def filter_rows(columns: Sequence[str], rows: list,
                predicate: Callable[[dict], bool],
                ctx: QueryContext | None = None) -> list:
    """The rows satisfying ``predicate`` (a row-dict test), in input
    order — partitioned across up to ``ctx.parallelism`` forked worker
    processes when :func:`should_partition` allows, serially
    otherwise."""
    ctx = context_mod.resolve(ctx)
    cols = tuple(columns)
    if not should_partition(len(rows), ctx):
        return [row for row in rows
                if predicate(dict(zip(cols, row)))]

    def kept(start: int, stop: int) -> list[int]:
        return [i for i in range(start, stop)
                if predicate(dict(zip(cols, rows[i])))]

    chunks = _chunk_bounds(len(rows), min(ctx.parallelism, len(rows)))
    return [rows[i]
            for part in _run_region(kept, chunks, ctx, len(chunks),
                                    inherit=True)
            for i in part]


def _chunk_bounds(n_rows: int, chunks: int) -> list[tuple[int, int]]:
    size, extra = divmod(n_rows, chunks)
    bounds_list, start = [], 0
    for i in range(chunks):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            bounds_list.append((start, stop))
        start = stop
    return bounds_list


def _rebuild_exhaustion(guard: ExecutionGuard | None,
                        error: dict) -> ResourceExhausted:
    """A worker's exhaustion dict back into the exception the serial
    run would have raised (ResourceExhausted doesn't pickle: its
    constructors are keyword-only)."""
    cls = getattr(errors_mod, error["kind"], None)
    if cls is None or not (isinstance(cls, type)
                           and issubclass(cls, ResourceExhausted)):
        cls = ResourceExhausted
    if guard is not None:
        guard.exhausted = error["budget"]
    if cls is QueryCancelled:
        return QueryCancelled(spent=error["spent"],
                              fragment=error["fragment"])
    return cls(error["message"], budget=error["budget"],
               limit=error["limit"], spent=error["spent"],
               fragment=error["fragment"])


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _guard_from_limits(limits: dict) -> ExecutionGuard | None:
    """The pro-rated per-worker guard.  When the region carries a
    cancel slot the guard polls it at every checkpoint — the parent's
    cancel reaches this process through the fork-shared board."""
    if not limits:
        return None
    guard = ExecutionGuard(
        deadline=limits.get("deadline"),
        max_pivots=limits.get("max_pivots"),
        max_branches=limits.get("max_branches"),
        max_disjuncts=limits["max_disjuncts"],
        max_canonical=limits.get("max_canonical"),
        on_exhaustion=limits["on_exhaustion"])
    if "dispatched_at" in limits:
        guard.start(at=limits["dispatched_at"])
    slot = limits.get("cancel_slot")
    if slot is not None:
        guard.bind_cancel_probe(lambda: slot_cancelled(slot))
    return guard


def _run_task(fn: Callable | None, args: tuple, limits: dict,
              options: dict | None) -> dict:
    """The one worker entry point: evaluate ``fn(*args)`` under a
    pro-rated guard and a *fresh* ``ExecutionStats``, so the shipped
    snapshot is exactly this task's delta.

    ``options is None`` marks a fork-inherit region: ``fn`` and the
    parent context come from :data:`_INHERITED`.  A pool worker may
    have forked during an unrelated earlier query, so there the context
    is rebuilt from the shipped :func:`context_options`.  ``fn`` reads
    the context ambiently; a guard trip travels back as a plain
    ``error`` dict."""
    global _IN_WORKER
    _IN_WORKER = True
    guard = _guard_from_limits(limits)
    if options is None:
        base, fn = _INHERITED
        worker_ctx = base.derive(guard=guard, stats=ExecutionStats())
    else:
        worker_ctx = QueryContext(guard=guard, stats=ExecutionStats(),
                                  **options)
    value = error = None
    try:
        with worker_ctx.activate():
            value = fn(*args)
    except ResourceExhausted as exc:
        # str(exc) already embeds the [budget=...] diagnostics block;
        # ship the bare message so reconstruction doesn't double it.
        error = {
            "kind": type(exc).__name__,
            "message": ("deadline exceeded" if exc.budget == "deadline"
                        else f"{exc.budget} budget exhausted"),
            "budget": exc.budget,
            "limit": exc.limit,
            "spent": exc.spent,
            "fragment": exc.fragment,
        }
    worker_ctx.stats.capture_guard(guard)
    return {"value": value, "error": error,
            "spend": guard.spend() if guard is not None else {},
            "stats": worker_ctx.stats.snapshot()}
