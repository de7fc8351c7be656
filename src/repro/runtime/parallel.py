"""The server's process executor: one request on a persistent worker pool.

:func:`dispatch` runs one task — a whole server request
(:func:`repro.server.procexec.run_query`) — on the process-wide pool of
fork-started workers: hand the task the guard's remaining budgets,
reserve a cancel slot, submit, wait, absorb the delivered outcome
exactly once.  ``fn``, its arguments and its value are pickled; the
worker trusts nothing it inherited and rebuilds its context from
:func:`context_options`, which carries *every* plain-data option of the
parent.  A task or value that will not pickle fails that one future
only.  When no outcome arrives the caller runs the task itself, and
every such fallback is counted under a reason
(``stats()["fallback_reasons"]``).

**Budgets.**  The worker runs under a fresh guard carrying what is left
of every budget of the parent's guard and the full remaining deadline,
counted from the dispatch — a task that waited for a worker has that
much less, and trips at its first checkpoint when nothing is left.  The
worker guard keeps the parent guard's exhaustion policy: the task *is*
the query, and the task itself turns a trip into its result.

**Counters.**  The worker ships its fresh
:class:`~repro.runtime.context.ExecutionStats` snapshot and guard
spend; the parent folds them in with the generic
:meth:`~repro.runtime.context.ExecutionStats.merge`, so counters added
later survive the round-trip with no change here.

**Cancellation.**  A worker cannot see
:meth:`~repro.runtime.guard.ExecutionGuard.cancel` called in the
parent.  The *cancel board* — a shared-memory byte array allocated at
import time, so every fork inherits it — closes the gap: the dispatch
reserves a slot, the worker guard polls it at every checkpoint, and
the wait loop flips it when it sees the parent guard cancelled.

Platforms without ``fork`` have no pool: :func:`fork_available` is
false there and the server runs every request in its own threads.
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
from typing import Any, Callable

from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.guard import ExecutionGuard

#: Work budgets a worker gets what is left of; disjuncts caps a single
#: disjunction wherever it is built and is passed through whole.
_SPENT_BUDGETS = (
    ("max_pivots", "pivots"),
    ("max_branches", "branches"),
    ("max_canonical", "canonical_steps"),
)

#: Why a dispatch delivered nothing and the caller ran the task
#: itself: a parent budget had nothing left; the pool could not start
#: or was found dead at submit; the outcome never came back (a worker
#: died, or the task or its value would not pickle).
FALLBACK_REASONS = ("no_headroom", "pool_start_failed", "worker_lost")


def _zeroed_stats() -> dict[str, Any]:
    return {"fallbacks": 0, "pool_dispatches": 0, "pool_cold_starts": 0,
            "fallback_reasons": dict.fromkeys(FALLBACK_REASONS, 0)}


_stats = _zeroed_stats()


def stats() -> dict[str, Any]:
    """Cumulative counters: ``pool_dispatches`` (tasks the pool
    delivered), ``fallbacks`` (dispatches that delivered nothing) and
    ``fallback_reasons`` (the same count by :data:`FALLBACK_REASONS`),
    ``pool_cold_starts`` (pools created)."""
    return {**_stats, "fallback_reasons": dict(_stats["fallback_reasons"])}


def reset_stats() -> None:
    _stats.update(_zeroed_stats())


def fork_available() -> bool:
    """Whether this platform can start the pool's workers (``fork``)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:
        return False


# ---------------------------------------------------------------------------
# The cancel board (cross-process cooperative cancellation)
# ---------------------------------------------------------------------------

#: Concurrent dispatches that can each carry a live cancel channel.  A
#: dispatch that finds no free slot simply runs without one (its worker
#: still terminates on its deadline).
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
    abandoned dispatch, so a spurious cancel only stops wasted work."""
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
    """The fork-based persistent worker pool (:func:`get_pool`).

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
        pending = [self.submit(_warm_task) for _ in range(self.workers)]
        pids = {_gather(future, None, None)[0] for future in pending}
        return len(pids - {None})

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
    if workers < 1 or not fork_available():
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
# Dispatch
# ---------------------------------------------------------------------------

#: Held while a dispatch takes the pool and submits to it, so no other
#: dispatch can replace the pool in between (a submit to a pool shut
#: down under it would read as a start failure and discard the new
#: pool).  Waiting happens outside it.
_SUBMIT_LOCK = threading.Lock()


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


def _worker_limits(guard: ExecutionGuard | None) -> dict | None:
    """The budget dict shipped to the worker — empty for an unguarded
    worker, ``None`` when some budget has no spend left (the caller
    then runs the task in-process so the parent guard trips at its
    usual site)."""
    if guard is None:
        return {}
    limits: dict = {"on_exhaustion": guard.on_exhaustion,
                    "max_disjuncts": guard.max_disjuncts}
    if guard.deadline is not None:
        limits["deadline"] = guard.deadline - guard.elapsed()
        if limits["deadline"] <= 0:
            return None
        # What is left runs from now, not from when a worker takes the
        # task: a pool task may queue behind others.  The monotonic
        # clock is system-wide on the platforms that fork.
        limits["dispatched_at"] = time.monotonic()
    for limit_name, counter_name in _SPENT_BUDGETS:
        limit = getattr(guard, limit_name)
        if limit is None:
            continue
        limits[limit_name] = limit - getattr(guard, counter_name)
        if limits[limit_name] <= 0:
            return None
    return limits


def _fell_back(ctx: QueryContext, reason: str) -> tuple[None, str]:
    _stats["fallbacks"] += 1
    _stats["fallback_reasons"][reason] += 1
    ctx.stats.parallel_fallbacks += 1
    return None, reason


def _gather(future, guard: ExecutionGuard | None,
            slot: int | None) -> tuple[Any, bool]:
    """Wait for one future, propagating a parent-side cancel to its
    worker through the cancel board.

    Returns ``(result, lost)``: ``result`` is ``None`` when the future
    did not deliver, and ``lost`` says a worker died (the executor is
    broken and must be discarded).  Any other failure is the future's
    own — its task or value would not pickle, or ``fn`` raised — and
    the caller's in-process run will succeed or raise the same error
    from the parent's own stack.  On cancel the worker is *not*
    abandoned: the board flip makes it stop at its next checkpoint and
    its outcome ships back normally, so the pool stays clean and the
    spend is still accounted."""
    signalled = False
    while not future.done():
        if not signalled and guard is not None and guard.cancelled:
            signal_cancel(slot)
            signalled = True
        wait([future], timeout=0.05)
    if future.cancelled():
        return None, False
    # Inspected, not raised: raising here would tie the future, its
    # exception's traceback and this frame — and through it the
    # caller's pool — into a cycle only the collector frees.
    error = future.exception()
    if error is None:
        return future.result(), False
    return None, isinstance(error, BrokenExecutor)


def dispatch(fn: Callable, args: tuple, ctx: QueryContext,
             width: int) -> tuple[Any, str | None]:
    """Run ``fn(*args)`` on the persistent pool of ``width`` workers,
    waiting for a worker when all are busy.

    Returns ``(value, reason)``.  When the worker's outcome arrived,
    ``reason`` is ``None``, ``value`` is what ``fn`` returned, and the
    worker's guard spend, stats and cache traffic are already absorbed
    into ``ctx`` exactly once.  Otherwise ``value`` is ``None`` and
    ``reason`` names the fallback (:data:`FALLBACK_REASONS`); nothing
    of the task was absorbed, so the caller may run it itself without
    double-charging.  ``fn`` turns its own errors into its value, as
    :func:`~repro.server.procexec.request_events` does: an exception
    escaping it is undelivered, and one that will not unpickle (a
    :class:`~repro.errors.ResourceExhausted`) breaks the pool."""
    guard = ctx.guard
    limits = _worker_limits(guard)
    if limits is None:
        return _fell_back(ctx, "no_headroom")
    slot = acquire_cancel_slot() if guard is not None else None
    if slot is not None:
        limits["cancel_slot"] = slot
    try:
        try:
            with _SUBMIT_LOCK:
                pool, cold = get_pool(width)
                future = pool.submit(_run_task, fn, args, limits,
                                     context_options(ctx))
        except (OSError, RuntimeError):
            # Fork limits, sandboxing, or a pool found dead at submit.
            shutdown_pool()
            return _fell_back(ctx, "pool_start_failed")
        outcome, lost = _gather(future, guard, slot)
    finally:
        release_cancel_slot(slot)

    if cold:
        ctx.stats.pool_cold_starts += 1
    if lost:
        shutdown_pool()
    if outcome is None:
        return _fell_back(ctx, "worker_lost")
    _stats["pool_dispatches"] += 1
    ctx.stats.pool_dispatches += 1
    _absorb_outcome(ctx, guard, outcome)
    return outcome["value"], None


def _absorb_outcome(ctx: QueryContext, guard: ExecutionGuard | None,
                    outcome: dict) -> None:
    """Fold the worker outcome into the parent context."""
    snapshot = outcome["stats"]
    if guard is not None:
        guard.absorb_spend(outcome["spend"])
    # One generic merge covers every declared counter — including
    # any added after this code was written.
    ctx.stats.merge(snapshot)
    # The cache object still needs the worker deltas (the entries
    # and cumulative counters a worker wrote stay in the pool worker).
    # Bounds traffic, by contrast, lives *only* in ExecutionStats.
    cache = ctx.cache
    if cache is not None:
        cache.absorb({
            "hits": snapshot.get("cache_hits", 0),
            "misses": snapshot.get("cache_misses", 0),
            "evictions": snapshot.get("cache_evictions", 0),
            "simplex_saved": snapshot.get("cache_simplex_saved", 0),
        })


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _guard_from_limits(limits: dict) -> ExecutionGuard | None:
    """The worker's guard.  When the dispatch carries a cancel slot the
    guard polls it at every checkpoint — the parent's cancel reaches
    this process through the fork-shared board."""
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


def _run_task(fn: Callable, args: tuple, limits: dict,
              options: dict) -> dict:
    """The worker entry point: evaluate ``fn(*args)`` under the
    shipped budgets and a *fresh* ``ExecutionStats``, so the shipped
    snapshot is exactly this task's delta.  A pool worker may have
    forked during an unrelated earlier request, so its context is
    rebuilt from the shipped :func:`context_options`; ``fn`` reads it
    ambiently."""
    guard = _guard_from_limits(limits)
    worker_ctx = QueryContext(guard=guard, stats=ExecutionStats(),
                              **options)
    with worker_ctx.activate():
        value = fn(*args)
    worker_ctx.stats.capture_guard(guard)
    return {"value": value,
            "spend": guard.spend() if guard is not None else {},
            "stats": worker_ctx.stats.snapshot()}
