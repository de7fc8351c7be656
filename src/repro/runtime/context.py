"""The execution context: one object owning all per-query state.

PRs 1-3 grew guards, caches, fault plans, stats, index toggles, and
parallel settings as *ambient* state — five separate ``ContextVar``\\ s
plus module-level singletons, threaded implicitly between layers.  That
state could not be isolated per query, which blocks the ROADMAP north
star of serving many concurrent queries from one process.

:class:`QueryContext` replaces all of it.  One object owns

* the :class:`~repro.runtime.guard.ExecutionGuard` (budgets,
  cancellation, and — through the guard — the
  :class:`~repro.runtime.faults.FaultPlan`);
* the :class:`~repro.runtime.cache.ConstraintCache` (or ``None`` for
  the memoization-off baseline);
* the :class:`ExecutionStats` account every layer writes into;
* the execution options: interval prefilter, box indexing, the
  numeric kernel, sharding, and whether the optimizer runs.

Every layer of the engine *receives* the context explicitly (a ``ctx``
parameter resolved once at each public entry point); exactly one
``ContextVar`` remains, holding the active ``QueryContext``, and the
context is the only carrier: an option is set by constructing (or
:meth:`~QueryContext.derive`-ing) a context and activating it, a
counter is read from its :class:`ExecutionStats`.  Two
``QueryContext``\\ s are fully isolated: two engines with different
budgets and caches can run interleaved in one process without stats,
cache, or guard bleed-through.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Hashable,
    Iterator,
    Mapping,
    TYPE_CHECKING,
    TypeVar,
    cast,
)

from repro.runtime.guard import ExecutionGuard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.model.database import Database
    from repro.model.oid import Oid
    from repro.runtime.cache import ConstraintCache
    from repro.runtime.faults import FaultPlan
    from repro.runtime.plancache import PlanCache

T = TypeVar("T")


@dataclass
class PhaseRecord:
    """One compilation/execution phase as recorded by the pipeline.

    ``plan_before``/``plan_after`` hold rendered plan trees for the
    phases that transform plans (``None`` for phases that do not).
    """

    name: str
    seconds: float
    detail: str = ""
    plan_before: str | None = None
    plan_after: str | None = None


def _merged(**meta: str) -> Any:
    """A counter field carrying explicit merge metadata."""
    return field(default=0, metadata=meta)


@dataclass
class ExecutionStats:
    """Counters filled during one execution (used by the benchmarks,
    the CLI's ``--analyze``, and the process executor's merge).

    The budget-spend block mirrors the context's
    :class:`~repro.runtime.guard.ExecutionGuard` counters; without a
    guard it stays at zero.  ``exhausted`` names the budget that
    tripped — recorded from the guard on every path, not only when the
    execution degraded.  The cache/box/index/pool blocks are
    written *directly* by the layers doing the work, so the numbers are
    per-context, not process-global deltas.

    Every field declares how it merges from a pool worker in its
    dataclass metadata (``sum`` is the default for counters; peaks use
    ``max``; lists ``extend``; engine-assigned fields are ``skip``\\ ed)
    — :meth:`merge` is generic over the declared fields, so counters
    added later automatically survive a worker round-trip.
    """

    optimized: bool = field(default=False, metadata={"merge": "skip"})
    input_rows: int = _merged(merge="skip")
    output_rows: int = _merged(merge="skip")
    # -- budget spend (from the context's ExecutionGuard) --------------
    elapsed: float = field(default=0.0, metadata={"merge": "max"})
    pivots: int = 0
    branches: int = 0
    canonical_steps: int = 0
    peak_disjuncts: int = _merged(merge="max")
    checkpoints: int = 0
    simplex_calls: int = 0
    exhausted: str | None = field(default=None,
                                  metadata={"merge": "first"})
    warnings: list[str] = field(default_factory=list,
                                metadata={"merge": "extend"})
    # -- cache / prefilter effectiveness -------------------------------
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_simplex_saved: int = 0
    box_checks: int = 0
    box_refutations: int = 0
    #: Exact-simplex invocations booked by the solver itself.
    simplex_solves: int = 0
    # -- numeric fast path (float prefilter / exact fallback) ----------
    numeric_accepts: int = 0
    numeric_rejects: int = 0
    numeric_fallbacks: int = 0
    #: Rows whose formula body a template assembled straight from
    #: stored rows — WHERE ``SAT`` rows packed for the kernel and
    #: SELECT formula rows (:func:`repro.core.formulas.template_body`).
    template_rows: int = 0
    # -- engine rule ---------------------------------------------------
    #: Queries :func:`repro.lyric.stream` ran on the naive evaluator,
    #: and why the latest of them did: the translator's message or
    #: ``"translated=False"``.
    engine_fallbacks: int = 0
    engine_fallback_reason: str | None = field(
        default=None, metadata={"merge": "first"})
    # -- box index ------------------------------------------------------
    #: Box indexes constructed from scratch (index-cache misses).
    index_builds: int = 0
    #: Box indexes brought current by *extending* a cached index with
    #: appended rows instead of rebuilding from scratch
    #: (:func:`repro.sqlc.index.index_for`).
    index_extends: int = 0
    #: Coarse candidate pairs examined by the vector/sweep phase.
    index_probes: int = 0
    #: Pairs that survived the box test to the exact phase.
    index_candidates: int = 0
    #: Pairs refuted without running the exact predicate
    #: (``|R|x|S| - candidates`` per join).
    candidates_pruned: int = 0
    # -- sharded scatter-gather execution -------------------------------
    #: Scatter-gather joins evaluated over sharded relations.
    shard_joins: int = 0
    #: Shard pairs whose bounding envelopes were disjoint — skipped
    #: without probing either shard's index.
    shard_pairs_pruned: int = 0
    #: Shard pairs that survived the envelope test and were probed.
    shard_pairs_probed: int = 0
    # -- the server's worker pool ---------------------------------------
    #: Requests a pool worker served (the server's process executor).
    pool_dispatches: int = 0
    #: Process-mode requests no worker's reply served, so they ran in
    #: their executor thread
    #: (:data:`repro.server.procexec.PROCESS_FALLBACK_REASONS`).
    parallel_fallbacks: int = 0
    #: Requests that had to fork the pool first;
    #: ``pool_dispatches - pool_cold_starts`` ran on warm workers.
    pool_cold_starts: int = 0
    # -- compiled-plan cache --------------------------------------------
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Cached plans evicted because their schema changed underneath.
    plan_cache_invalidations: int = 0
    #: Compile seconds skipped by plan-cache hits.
    plan_compile_saved: float = 0.0
    # -- flat catalog ----------------------------------------------------
    #: Catalog lookups answered by the catalog the database held.
    catalog_hits: int = 0
    #: Lookups that built a new one, and why the last of them had to
    #: (one of :data:`repro.model.relations.REBUILD_REASONS`).
    catalog_rebuilds: int = 0
    catalog_rebuild_reason: str | None = field(
        default=None, metadata={"merge": "first"})
    # -- pipeline phase trace ------------------------------------------
    phases: list[PhaseRecord] = field(default_factory=list,
                                      metadata={"merge": "extend"})

    def reset(self) -> None:
        """Zero every per-execution field so a stats object can be
        reused across executions without accumulating stale values."""
        fresh = ExecutionStats()
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(fresh, f.name))

    def snapshot(self) -> dict[str, Any]:
        """The counters as a plain picklable dict (lists copied) — the
        transport format workers ship back to the parent process."""
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, list) else value
        return out

    def merge(self, other: "ExecutionStats | Mapping[str, Any]") -> None:
        """Fold another account (object or :meth:`snapshot` dict) into
        this one, using each field's declared reduction.

        Generic over ``dataclasses.fields``: a counter added to this
        class later merges correctly with no change here (``sum`` by
        default, or whatever its metadata declares).
        """
        if isinstance(other, Mapping):
            def get(name: str) -> Any:
                return other.get(name)
        else:
            def get(name: str) -> Any:
                return getattr(other, name, None)
        for f in dataclasses.fields(self):
            how = f.metadata.get("merge", "sum")
            if how == "skip":
                continue
            value = get(f.name)
            if value is None:
                continue
            current = getattr(self, f.name)
            if how == "sum":
                setattr(self, f.name, current + value)
            elif how == "max":
                if value > current:
                    setattr(self, f.name, value)
            elif how == "first":
                if current is None:
                    setattr(self, f.name, value)
            elif how == "extend":
                current.extend(value)

    def capture_guard(self, guard: ExecutionGuard | None,
                      baseline: dict[str, Any] | None = None) -> None:
        """Record the guard's spend, as a delta against ``baseline`` (a
        prior :meth:`ExecutionGuard.spend` snapshot) when given —
        guards accumulate across executions, so reusing one without a
        baseline would re-report earlier executions' spend."""
        if guard is None:
            return
        base = baseline or {}
        self.elapsed = guard.elapsed() - base.get("elapsed", 0.0)
        self.pivots = guard.pivots - base.get("pivots", 0)
        self.branches = guard.branches - base.get("branches", 0)
        self.canonical_steps = guard.canonical_steps \
            - base.get("canonical_steps", 0)
        self.peak_disjuncts = guard.peak_disjuncts
        self.checkpoints = guard.checkpoints \
            - base.get("checkpoints", 0)
        self.simplex_calls = guard.simplex_calls \
            - base.get("simplex_calls", 0)
        if self.exhausted is None and guard.exhausted is not None \
                and guard.exhausted != base.get("exhausted"):
            self.exhausted = guard.exhausted


#: Sentinel distinguishing "not overridden" from an explicit ``None``
#: (``cache=None`` means *caching disabled*, a meaningful value).
_UNSET: Any = object()

#: The attributes :meth:`QueryContext.derive` may override.
_DERIVABLE = frozenset({
    "guard", "cache", "prefilter", "indexing", "numeric", "use_optimizer", "catalog", "stats", "db", "params",
    "plan_cache", "shards",
})


class QueryContext:
    """All execution state of one query, as one explicit object.

    Construction is cheap; contexts are freely derived per query or per
    dynamic extent (:meth:`derive`).  ``cache`` defaults to the
    process-global constraint cache; pass ``cache=None`` for the
    memoization-off baseline.  ``stats`` defaults to a fresh
    :class:`ExecutionStats`; :meth:`derive` *shares* the parent's stats
    unless overridden, so nested activations keep one coherent account.
    """

    __slots__ = ("guard", "cache", "prefilter", "indexing", "numeric",
                 "use_optimizer", "catalog", "stats", "db", "params",
                 "plan_cache", "shards")

    def __init__(self, *,
                 guard: ExecutionGuard | None = None,
                 cache: "ConstraintCache | None" = _UNSET,
                 prefilter: bool = True,
                 indexing: bool = True,
                 numeric: bool = True,
                 use_optimizer: bool = True,
                 catalog: Mapping[str, Any] | None = None,
                 stats: ExecutionStats | None = None,
                 db: "Database | None" = None,
                 params: "Mapping[str, Oid] | None" = None,
                 plan_cache: "PlanCache | None" = _UNSET,
                 shards: int = 0) -> None:
        if shards < 0 or shards == 1:
            raise ValueError(
                f"shards must be 0 (unsharded) or >= 2, got {shards!r}")
        if cache is _UNSET:
            from repro.runtime.cache import get_global_cache
            cache = get_global_cache()
        if plan_cache is _UNSET:
            from repro.runtime.plancache import get_global_plan_cache
            plan_cache = get_global_plan_cache()
        self.guard = guard
        self.cache = cache
        self.prefilter = prefilter
        self.indexing = indexing
        #: Whether the float kernel screens satisfiability questions in
        #: front of the exact solver (on by default); ``False``
        #: (``--no-numeric``) keeps every one on the exact solver.
        self.numeric = numeric
        self.use_optimizer = use_optimizer
        self.catalog = catalog
        self.stats = stats if stats is not None else ExecutionStats()
        #: The database a cached (database-free) plan is bound to for
        #: this execution — set by the pipeline's execute step; plan
        #: closures read it through :func:`bound_db`.
        self.db = db
        #: Parameter bindings (``$name`` -> oid) for this execution.
        self.params = params
        #: The compiled-plan cache, or ``None`` to compile every query
        #: from scratch (the ``--no-plan-cache`` baseline).
        self.plan_cache = plan_cache
        #: Hash/range-partition catalog relations into this many shards
        #: when flattening (0 = monolithic relations, the default).
        #: Sharded catalogs enable the scatter-gather
        #: :class:`~repro.sqlc.algebra.ShardedIndexJoin`.
        self.shards = shards

    # -- derived views ---------------------------------------------------

    @property
    def faults(self) -> "FaultPlan | None":
        """The fault-injection plan, owned through the guard."""
        return self.guard.faults if self.guard is not None else None

    @property
    def on_exhaustion(self) -> str:
        """The degrade policy (``"fail"`` without a guard)."""
        return self.guard.on_exhaustion if self.guard is not None \
            else "fail"

    # -- memoization protocol --------------------------------------------

    def memoized(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()`` through this context's cache.

        On a hit the stored result is returned after a single guard
        checkpoint — budgets are not spent, but cancellation and
        deadlines still fire.  On a miss the computation runs normally
        (spending its budgets) and the result is stored with its
        simplex-call cost.  A value is stored only after ``compute()``
        returns, so an exception — budget exhaustion, an injected fault
        or a cancel — is never cached, and a faulted run leaves the
        cache as sound as an unfaulted one.  Hit/miss/eviction traffic
        is booked both on the cache object (its cumulative counters)
        and on this context's :attr:`stats`.
        """
        cache = self.cache
        if cache is None:
            return compute()
        saved_before = cache.simplex_saved
        hit, value = cache.lookup(key)
        if hit:
            self.stats.cache_hits += 1
            self.stats.cache_simplex_saved += \
                cache.simplex_saved - saved_before
            if self.guard is not None:
                self.guard.checkpoint("cache")
            return cast(T, value)
        self.stats.cache_misses += 1
        solves_before = self.stats.simplex_solves
        result = compute()
        evictions_before = cache.evictions
        cache.store(key, result,
                    cost=self.stats.simplex_solves - solves_before)
        self.stats.cache_evictions += cache.evictions - evictions_before
        return result

    # -- derivation and activation ---------------------------------------

    def derive(self, **overrides: Any) -> "QueryContext":
        """A new context differing only in the given attributes.

        ``stats`` is *shared* with this context unless overridden
        (nested extents report into one account); every other attribute
        copies.  Explicit ``None`` overrides are honoured (``guard=None``
        removes the guard, ``cache=None`` disables caching).
        """
        unknown = set(overrides) - _DERIVABLE
        if unknown:
            raise TypeError(
                f"cannot derive over {sorted(unknown)}; "
                f"derivable: {sorted(_DERIVABLE)}")
        kwargs: dict[str, Any] = {
            name: overrides[name] if name in overrides
            else getattr(self, name)
            for name in _DERIVABLE
        }
        return QueryContext(**kwargs)

    @contextmanager
    def activate(self) -> Iterator["QueryContext"]:
        """Make this context ambient for the dynamic extent (starts the
        guard's deadline clock).  Activations nest; the innermost wins,
        and the previous context is restored on exit."""
        if self.guard is not None:
            self.guard.start()
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    def __repr__(self) -> str:
        parts = []
        if self.guard is not None:
            parts.append(f"guard={self.guard!r}")
        parts.append("cache=off" if self.cache is None
                     else f"cache({self.cache.maxsize})")
        if not self.prefilter:
            parts.append("prefilter=off")
        if not self.indexing:
            parts.append("indexing=off")
        if not self.numeric:
            parts.append("numeric=off")
        if self.shards:
            parts.append(f"shards={self.shards}")
        if not self.use_optimizer:
            parts.append("optimizer=off")
        if self.plan_cache is None:
            parts.append("plan-cache=off")
        if self.params:
            parts.append(f"params={sorted(self.params)}")
        return f"QueryContext({', '.join(parts)})"


# ---------------------------------------------------------------------------
# The one remaining ContextVar
# ---------------------------------------------------------------------------

_ACTIVE: ContextVar[QueryContext | None] = ContextVar(
    "repro_query_context", default=None)

_default_context: QueryContext | None = None


def default_context() -> QueryContext:
    """The process-default context: no guard, the global cache, every
    option at its default.  Constructed lazily, once."""
    global _default_context
    if _default_context is None:
        _default_context = QueryContext()
    return _default_context


def current_context() -> QueryContext:
    """The context active in this dynamic extent, falling back to the
    process default (never ``None`` — unguarded code paths read their
    options from the default context)."""
    active = _ACTIVE.get()
    return active if active is not None else default_context()


def resolve(ctx: QueryContext | None) -> QueryContext:
    """The explicit ``ctx`` when given, else the ambient context — the
    one-line shim every public entry point uses."""
    return ctx if ctx is not None else current_context()


def bound_db(fallback: "Database | None" = None) -> "Database | None":
    """The database the active context binds plans to, falling back to
    ``fallback`` (the translate-time database) for direct plan
    evaluation outside the pipeline's bind step."""
    db = current_context().db
    return db if db is not None else fallback


def param_value(name: str) -> "Oid":
    """The oid bound to parameter ``$name`` in the active context.

    Raises :class:`~repro.errors.EvaluationError` when the execution
    carries no binding for it — parameters are resolved at evaluation
    time, so an unbound slot is a run-time error, not a compile-time
    one."""
    from repro.errors import EvaluationError
    params = current_context().params
    if params is None or name not in params:
        raise EvaluationError(
            f"unbound parameter ${name}; bind it via EXECUTE arguments "
            "or the params= mapping")
    return params[name]
