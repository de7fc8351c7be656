"""The process-wide query service: shared state, deduplication, stats.

One :class:`QueryService` owns what every session shares — the
database (optionally backed by a durable
:class:`~repro.storage.store.Store`), the process-wide plan and
constraint caches, a thread-pool executor for the solver-bound work,
and the aggregate statistics account.

**In-flight deduplication.**  Identical concurrent queries share one
execution: a request is keyed on (normalized AST, schema fingerprint,
database version, plan options, parameter bindings, effective guard
budgets), and a second request arriving while the first still runs
*subscribes* to the same :class:`_Job` instead of executing again.
Every event a job publishes (row batches, warnings, stats, the
terminal frame) is buffered, so a late subscriber replays the prefix
it missed and then follows live — all subscribers observe the exact
same result bytes.  Cancellation is per-subscriber: detaching drops
that waiter, and only when the *last* subscriber detaches is the
shared guard cancelled.

**Mutations.**  ``CREATE VIEW`` takes the writer path: it waits for
in-flight reads to drain, runs exclusively, flushes the store's WAL
(when durable), and bumps ``db_version`` — which changes every dedup
key, so no later query can join a pre-mutation job.

Everything here runs on the event loop thread except the query bodies
themselves, which :meth:`QueryService.submit` ships to the executor;
workers publish events back via ``loop.call_soon_threadsafe``.

**Executor modes.**  A request is one body,
:func:`repro.server.procexec.request_events`, and the executor decides
only where it runs.  The executor above is always a thread pool; with
``executor="process"`` on a fork platform (``"auto"`` resolves to
``"thread"``) the service also owns a
:class:`~repro.server.procexec.ProcessExecutor` — one pool of forked
workers, its own — and each executor thread hands its request to it,
so distinct concurrent queries use every core, and waits for a worker:
the pool queues what exceeds its size.  When no worker's reply serves
the request (a reason from
:data:`~repro.server.procexec.PROCESS_FALLBACK_REASONS`) the thread
runs the same generator itself, before anything is published, so
clients cannot observe where a request ran except through STATS.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, AsyncIterator, Iterable, Mapping

from repro import lyric
from repro.core import ast
from repro.model.database import Database
from repro.model.oid import Oid
from repro.model.relations import REBUILD_REASONS
from repro.runtime import ExecutionGuard, QueryContext
from repro.runtime.context import ExecutionStats
from repro.runtime.plancache import plan_options_key
from repro.server import procexec, protocol
from repro.server.procexec import PROCESS_FALLBACK_REASONS
from repro.storage.store import Store

#: Budget axes a client may request and the server may cap.
BUDGET_FIELDS = ("deadline", "max_pivots", "max_branches",
                 "max_disjuncts", "max_canonical")


@dataclass(frozen=True)
class ServerLimits:
    """Server-side caps on per-request guard budgets.

    A client asks for budgets in its request; the effective budget on
    each axis is the *smaller* of what it asked for and the cap here
    (a cap alone applies to clients that asked for nothing).  ``None``
    means uncapped on that axis.

    ``max_workers`` is not a guard budget: it is the size of the
    process executor's worker pool (``None`` = size the pool to the
    machine).  Requests beyond it queue for a worker."""

    deadline: float | None = None
    max_pivots: int | None = None
    max_branches: int | None = None
    max_disjuncts: int | None = None
    max_canonical: int | None = None
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and (
                isinstance(self.max_workers, bool)
                or not isinstance(self.max_workers, int)
                or self.max_workers < 1):
            raise ValueError(
                f"max_workers must be a positive integer or None, "
                f"got {self.max_workers!r}")

    def effective_guard(self, spec: Mapping[str, Any] | None
                        ) -> ExecutionGuard:
        """The guard a request runs under.  Always a real guard, even
        with no budgets anywhere: the guard is also the cooperative
        cancellation channel, and CANCEL must work on every query."""
        spec = spec or {}
        unknown = set(spec) - set(BUDGET_FIELDS) - {"on_exhaustion"}
        if unknown:
            raise protocol.ProtocolError(
                f"unknown guard fields: {sorted(unknown)}")
        kwargs: dict[str, Any] = {}
        for name in BUDGET_FIELDS:
            asked = spec.get(name)
            cap = getattr(self, name)
            if asked is not None and (
                    not isinstance(asked, (int, float))
                    or asked <= 0):
                raise protocol.ProtocolError(
                    f"guard budget {name} must be positive")
            if asked is None:
                kwargs[name] = cap
            elif cap is None:
                kwargs[name] = asked
            else:
                kwargs[name] = min(asked, cap)
        policy = spec.get("on_exhaustion", "fail")
        if policy not in ("fail", "degrade"):
            raise protocol.ProtocolError(
                f"on_exhaustion must be 'fail' or 'degrade', "
                f"got {policy!r}")
        return ExecutionGuard(on_exhaustion=policy, **kwargs)

    def budget_key(self, spec: Mapping[str, Any] | None) -> tuple:
        """The dedup-key component for a guard spec: the *effective*
        budgets (two clients capped to the same budgets share work)."""
        guard = self.effective_guard(spec)
        return tuple(getattr(guard, name) for name in BUDGET_FIELDS) \
            + (guard.on_exhaustion,)


# ---------------------------------------------------------------------------
# Aggregate statistics (satellite: STATS / --dump-stats-on-exit)
# ---------------------------------------------------------------------------


class ServiceStats:
    """The service-lifetime account: request counters plus a merged
    :class:`ExecutionStats` over every request served.

    Written from executor threads and read from the loop, so all
    access goes through one lock.  Before merging, the unbounded
    ``extend`` fields (phase traces, warnings) are stripped — the
    aggregate is a counter account, not a transcript — which the
    field-survival test pins down explicitly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._execution = ExecutionStats()
        self.requests = 0
        self.failures = 0
        self.cancellations = 0
        self.rows_streamed = 0
        self.dedup_hits = 0
        self.dedup_misses = 0
        self.mutations = 0
        self.sessions_opened = 0
        self.sessions_closed = 0
        #: Resolved executor mode ("thread" / "process"), set by the
        #: owning service.
        self.executor = "thread"
        #: Requests served end-to-end in a pool worker process, and
        #: requests that fell back to the thread path, in total and by
        #: reason; pools the process executor forked.
        self.process_requests = 0
        self.process_fallbacks = 0
        self.process_fallback_reasons = dict.fromkeys(
            PROCESS_FALLBACK_REASONS, 0)
        self.pool_cold_starts = 0
        #: Requests that had to rebuild the database's flat catalog,
        #: by reason (their number is ``execution.catalog_rebuilds``).
        self.catalog_rebuild_reasons = dict.fromkeys(REBUILD_REASONS, 0)
        #: Requests the engine rule ran on the naive evaluator, by
        #: reason (their number is ``execution.engine_fallbacks``).
        self.engine_fallback_reasons: dict[str, int] = {}

    def record_request(self, stats: ExecutionStats | None, *,
                       rows: int = 0, outcome: str = "ok") -> None:
        """Fold one request's account into the aggregate.  ``outcome``
        is ``"ok"`` / ``"error"`` / ``"cancelled"``."""
        with self._lock:
            self.requests += 1
            self.rows_streamed += rows
            if outcome == "error":
                self.failures += 1
            elif outcome == "cancelled":
                self.cancellations += 1
            if stats is not None:
                snap = stats.snapshot()
                snap.pop("phases", None)
                snap.pop("warnings", None)
                self._execution.merge(snap)
                reason = stats.catalog_rebuild_reason
                if reason is not None:
                    self.catalog_rebuild_reasons[reason] = \
                        self.catalog_rebuild_reasons.get(reason, 0) + 1
                reason = stats.engine_fallback_reason
                if reason is not None:
                    self.engine_fallback_reasons[reason] = \
                        self.engine_fallback_reasons.get(reason, 0) + 1

    def note_dedup(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.dedup_hits += 1
            else:
                self.dedup_misses += 1

    def note_mutation(self) -> None:
        with self._lock:
            self.mutations += 1

    def note_session(self, opened: bool) -> None:
        with self._lock:
            if opened:
                self.sessions_opened += 1
            else:
                self.sessions_closed += 1

    def note_process(self, fallback: str | None) -> None:
        """One process-mode request: served by a worker (``None``) or
        by the thread path for the named reason."""
        with self._lock:
            if fallback is None:
                self.process_requests += 1
            else:
                self.process_fallbacks += 1
                self.process_fallback_reasons[fallback] += 1

    def note_cold_start(self) -> None:
        with self._lock:
            self.pool_cold_starts += 1

    def snapshot(self) -> dict[str, Any]:
        """The whole account as a JSON-able dict (the STATS reply and
        the ``--dump-stats-on-exit`` report)."""
        with self._lock:
            execution = protocol.stats_payload(self._execution)
            execution.pop("phases", None)
            execution.pop("warnings", None)
            return {
                "requests": self.requests,
                "failures": self.failures,
                "cancellations": self.cancellations,
                "rows_streamed": self.rows_streamed,
                "dedup_hits": self.dedup_hits,
                "dedup_misses": self.dedup_misses,
                "mutations": self.mutations,
                "sessions_opened": self.sessions_opened,
                "sessions_closed": self.sessions_closed,
                "executor": self.executor,
                "process_requests": self.process_requests,
                "process_fallbacks": self.process_fallbacks,
                "process_fallback_reasons":
                    dict(self.process_fallback_reasons),
                "catalog_rebuild_reasons":
                    dict(self.catalog_rebuild_reasons),
                "engine_fallback_reasons":
                    dict(self.engine_fallback_reasons),
                #: The same account seen from the pool: requests its
                #: workers served, requests that fell back, and pools
                #: forked (``--warm-pool``'s observable).
                "pool": {
                    "pool_dispatches": self.process_requests,
                    "fallbacks": self.process_fallbacks,
                    "pool_cold_starts": self.pool_cold_starts,
                },
                "execution": execution,
            }


# ---------------------------------------------------------------------------
# In-flight jobs and their subscribers
# ---------------------------------------------------------------------------

#: Event tuples a job publishes; "done" and "error" are terminal.
_TERMINAL = ("done", "error")


class _Job:
    """One shared execution.  Mutated only on the event loop thread
    (the worker publishes via ``call_soon_threadsafe``), so no lock."""

    __slots__ = ("key", "guard", "buffer", "subscribers", "finished",
                 "_next_sub")

    def __init__(self, key: tuple, guard: ExecutionGuard) -> None:
        self.key = key
        self.guard = guard
        self.buffer: list[tuple] = []
        self.subscribers: dict[int, asyncio.Queue] = {}
        self.finished = False
        self._next_sub = 0

    def publish(self, event: tuple) -> None:
        self.buffer.append(event)
        if event[0] in _TERMINAL:
            self.finished = True
        for queue in self.subscribers.values():
            queue.put_nowait(event)

    def attach(self, deduped: bool) -> "Subscription":
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.buffer:
            queue.put_nowait(event)
        sub_id = self._next_sub
        self._next_sub += 1
        if not self.finished:
            self.subscribers[sub_id] = queue
        return Subscription(self, sub_id, queue, deduped)

    def detach(self, sub_id: int) -> None:
        self.subscribers.pop(sub_id, None)
        if not self.subscribers and not self.finished:
            # Nobody is listening any more: stop spending.  The worker
            # observes this at its next guard checkpoint.
            self.guard.cancel()


class Subscription:
    """One waiter's view of a job: an event stream plus a local,
    per-subscriber cancel."""

    __slots__ = ("job", "sub_id", "queue", "deduped", "detached")

    def __init__(self, job: _Job, sub_id: int, queue: asyncio.Queue,
                 deduped: bool) -> None:
        self.job = job
        self.sub_id = sub_id
        self.queue = queue
        self.deduped = deduped
        self.detached = False

    def cancel(self) -> None:
        """Detach this waiter.  Its event stream ends with a
        ``cancelled`` error immediately; the shared execution keeps
        running while other subscribers remain and is guard-cancelled
        when the last one leaves."""
        if self.detached:
            return
        self.detached = True
        self.job.detach(self.sub_id)
        self.queue.put_nowait(
            ("error", "cancelled", "query cancelled by client"))

    async def events(self) -> AsyncIterator[tuple]:
        """Events until (and including) the terminal one."""
        while True:
            event = await self.queue.get()
            yield event
            if event[0] in _TERMINAL:
                return


class _ReadWriteGate:
    """Reads run concurrently; a mutation runs alone.  Writer-greedy:
    once a writer waits, new readers queue behind it (no starvation).
    Loop-thread only."""

    def __init__(self) -> None:
        self._cond: asyncio.Condition | None = None
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    def _condition(self) -> asyncio.Condition:
        if self._cond is None:
            self._cond = asyncio.Condition()
        return self._cond

    async def acquire_read(self) -> None:
        cond = self._condition()
        async with cond:
            while self._writing or self._writers_waiting:
                await cond.wait()
            self._readers += 1

    async def release_read(self) -> None:
        cond = self._condition()
        async with cond:
            self._readers -= 1
            cond.notify_all()

    async def acquire_write(self) -> None:
        cond = self._condition()
        async with cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    await cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True

    async def release_write(self) -> None:
        cond = self._condition()
        async with cond:
            self._writing = False
            cond.notify_all()


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class QueryService:
    """Shared execution state for every session of one server."""

    def __init__(self, db: Database, *,
                 store: Store | None = None,
                 limits: ServerLimits | None = None,
                 executor_threads: int = 8,
                 executor: str = "auto",
                 base_ctx: QueryContext | None = None) -> None:
        self.db = db
        self.store = store
        self.limits = limits or ServerLimits()
        self.stats = ServiceStats()
        #: Bumped under the write gate by every mutation; part of every
        #: dedup key, so post-mutation queries never join stale jobs.
        self.db_version = 0
        #: Set by the server while draining: sessions refuse new work.
        self.draining = False
        # The base context: process-global caches, fresh stats/guard
        # per request (derived in the worker).
        if base_ctx is not None and base_ctx.guard is not None:
            raise ValueError(
                "base_ctx must not carry a guard: every request builds "
                "its own from the service's ServerLimits")
        self._base_ctx = base_ctx if base_ctx is not None \
            else QueryContext()
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads,
            thread_name_prefix="lyric-exec")
        self._jobs: dict[tuple, _Job] = {}
        self._gate = _ReadWriteGate()
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Resolved executor mode: "process" runs picklable requests
        #: in pool workers, "thread" keeps everything in-process.
        self.executor_mode = self._resolve_executor(executor)
        self.stats.executor = self.executor_mode
        #: This service's own worker pool (process mode); it forks on
        #: the first process request or :meth:`warm_pool`.
        self._procexec: procexec.ProcessExecutor | None = None
        if self.executor_mode == "process":
            self._procexec = procexec.ProcessExecutor(
                self.limits.max_workers or max(2, os.cpu_count() or 2),
                self.db_version, db, self.stats)

    @staticmethod
    def _resolve_executor(executor: str) -> str:
        """``auto`` means "thread": on every load measured so far the
        worker hop costs more than the GIL it escapes (DESIGN.md, the
        process-executor fork row), so the pool is forked only when
        asked for.  An explicit ``process`` on a fork-less platform
        degrades to ``thread`` (the pool could never start)."""
        if executor not in ("auto", "thread", "process"):
            raise ValueError(
                f"executor must be auto/thread/process, "
                f"got {executor!r}")
        if executor == "process" and procexec.fork_available():
            return "process"
        return "thread"

    # -- lifecycle -------------------------------------------------------

    def _running_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        return loop

    def close(self) -> None:
        """Stop the executor threads and, in process mode, join the
        worker pool.  The drain and the force-cancel have run by now,
        so the join is bounded."""
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._procexec is not None:
            self._procexec.close()

    def warm_pool(self) -> int:
        """Pre-fork the worker pool (``repro serve --warm-pool``), so
        the first process-executed request does not pay the cold-start
        penalty.  Returns the worker count that answered (0 in thread
        mode)."""
        if self._procexec is None:
            return 0
        return self._procexec.warm()

    # -- queries ---------------------------------------------------------

    def parse(self, text: str) -> ast.Query:
        """Parse through the plan cache's AST memo, so a repeated query
        text skips the tokenizer before it ever reaches a worker."""
        from repro.core.parser import parse_query
        cache = self._base_ctx.plan_cache
        if cache is not None:
            return cache.ast_for(text, parse_query)
        return parse_query(text)

    async def submit(self, query_ast: ast.Query, *,
                     params: Mapping[str, Oid] | None = None,
                     translated: bool = True,
                     use_optimizer: bool | None = None,
                     guard_spec: Mapping[str, Any] | None = None
                     ) -> Subscription:
        """Run (or join) a query; returns the caller's subscription.

        ``use_optimizer`` and ``params`` left as ``None`` keep the
        service's base context's values; the guard is always this
        request's own, from :attr:`limits` and ``guard_spec``.

        Dedup joins an in-flight job only when every key component
        matches — including the *effective* budgets, so a tighter
        client never receives rows computed under a looser budget."""
        loop = self._running_loop()
        overrides: dict[str, Any] = {}
        if use_optimizer is not None:
            overrides["use_optimizer"] = use_optimizer
        if params:
            overrides["params"] = dict(params)
        plan_ctx = self._base_ctx.derive(**overrides) if overrides \
            else self._base_ctx
        params_key = tuple(sorted((plan_ctx.params or {}).items())) \
            or None
        key = (query_ast, self.db.schema.fingerprint(),
               self.db_version, translated,
               plan_options_key(plan_ctx), params_key,
               self.limits.budget_key(guard_spec))
        job = self._jobs.get(key)
        if job is not None and not job.finished:
            self.stats.note_dedup(True)
            return job.attach(deduped=True)
        self.stats.note_dedup(False)
        await self._gate.acquire_read()
        guard = self.limits.effective_guard(guard_spec)
        job = _Job(key, guard)
        self._jobs[key] = job
        subscription = job.attach(deduped=False)
        db = self.db
        db_version = self.db_version

        def work() -> None:
            ctx = plan_ctx.derive(guard=guard, stats=ExecutionStats())
            events = None
            if self._procexec is not None:
                # The deadline covers the wait for a worker, not only
                # the run.
                guard.start()
                events = self._procexec.run(
                    ctx, db_version, query_ast, translated)
            if events is None:
                # Thread mode, or no worker's reply arrived: the same
                # body runs here, and rows leave while it runs.
                events = procexec.request_events(
                    db, query_ast, translated, ctx)
            self._serve(job, events, ctx.stats)

        async def drive() -> None:
            try:
                await loop.run_in_executor(self._executor, work)
            except Exception as exc:  # noqa: BLE001 - ends the job
                # ``work`` raised before its terminal event (events it
                # posted are published by now): end the job, or every
                # subscriber waits for ever, and report the traceback.
                if not job.finished:
                    self.stats.record_request(None, outcome="error")
                    job.publish(("error", protocol.error_code(exc),
                                 str(exc)))
                loop.call_exception_handler({
                    "message": "query executor raised",
                    "exception": exc})
            finally:
                if self._jobs.get(key) is job:
                    del self._jobs[key]
                await self._gate.release_read()

        asyncio.ensure_future(drive())
        return subscription

    def _serve(self, job: _Job, events: Iterable[tuple],
               stats: ExecutionStats) -> None:
        """Publish a request's events — a live
        :func:`~repro.server.procexec.request_events` generator, or the
        list a worker shipped — and close its account ahead of the
        terminal one: capture the guard into ``stats``, post the
        ``stats`` event (on ``done`` only) and record the request, so
        anyone who observed the terminal event also sees this request
        in the aggregate."""
        loop = self._loop
        assert loop is not None

        def post(event: tuple) -> None:
            loop.call_soon_threadsafe(job.publish, event)

        rows = 0
        for event in events:
            kind = event[0]
            if kind == "rows":
                rows += len(event[1])
            elif kind == "done":
                stats.capture_guard(job.guard)
                post(("stats", protocol.stats_payload(stats)))
                self.stats.record_request(stats, rows=rows, outcome="ok")
            elif kind == "error":
                stats.capture_guard(job.guard)
                self.stats.record_request(
                    stats, rows=rows,
                    outcome="cancelled" if event[1] == "cancelled"
                    else "error")
            post(event)

    # -- mutations -------------------------------------------------------

    async def run_view(self, text: str | ast.CreateView,
                       guard_spec: Mapping[str, Any] | None = None
                       ) -> dict[str, Any]:
        """Execute a CREATE VIEW exclusively: wait out in-flight reads,
        materialize, flush the store's WAL (fsync), bump the database
        version.  Returns the JSON-able summary frame body."""
        loop = self._running_loop()
        await self._gate.acquire_write()
        try:
            guard = self.limits.effective_guard(guard_spec)

            def work() -> dict[str, Any]:
                ctx = self._base_ctx.derive(
                    guard=guard, stats=ExecutionStats())
                created = lyric.view(self.db, text, ctx=ctx)
                if self.store is not None:
                    self.store.flush()
                return {
                    "classes": list(created.classes),
                    "instances": {name: len(members)
                                  for name, members
                                  in created.instances.items()},
                }
            summary = await loop.run_in_executor(self._executor, work)
            self.db_version += 1
            self.stats.note_mutation()
            if self._procexec is not None:
                # Pool workers inherited the pre-mutation database by
                # fork: stage the new one for the next fork and join
                # the old pool (exclusive write: no process query is
                # running).  The version check in the worker covers
                # any straggler.
                await loop.run_in_executor(
                    self._executor, self._procexec.replace,
                    self.db_version, self.db)
            return summary
        finally:
            await self._gate.release_write()
