"""The compiled-plan cache — memoizing the compile pipeline itself.

PR 4 restaged compilation (parse → analyze → translate → rewrite →
physical plan) as an inspectable pipeline; this module caches its
product.  In constraint databases the compilation/elimination machinery
often dominates evaluation cost (Giusti, Heintz & Kuijpers), so a
workload of many small repeated queries — exactly the query-server
shape of the ROADMAP north star — spends most of its time re-deriving
identical plans.

A plan is reusable because PR 7 made it *database-free*: plan nodes
reference relations by catalog name and predicate closures resolve the
database through :func:`repro.runtime.context.bound_db` at evaluation
time, so one compiled plan serves every database whose schema matches.
Parameter slots (``$name``) stay symbolic in the plan and resolve from
the active context's bindings, so one plan also serves all parameter
bindings.

Keys are ``(query AST, schema fingerprint, plan-relevant options)``:

* the **raw parsed AST** — every AST node is a frozen dataclass, so the
  tree is hashable and structurally comparable; two textual queries
  differing only in whitespace/comments share an entry, and a hit
  skips *analysis and translation entirely* (zero translate/optimize
  phase records);
* the **schema fingerprint** (:meth:`repro.model.schema.Schema.
  fingerprint`, the storage layer's content digest) — equal-content
  schemas share plans (a ``Store``-restored database reuses plans
  prepared against the original), and any DDL mutation changes the key;
* the **options** that change the compiled plan: ``indexing``,
  ``use_optimizer`` and ``shards`` (they steer the physical rewrites —
  sharding selects scatter-gather join nodes — so they must partition
  the cache).  ``numeric`` is not among them: nothing in compilation
  reads it — the batch filter takes the float-kernel switch from the
  executing context — so one cached plan serves the kernel on or
  off.

Guard interaction mirrors the constraint cache
(:mod:`repro.runtime.cache`): a hit runs one guard checkpoint (done by
the pipeline), and a guard carrying a :class:`~repro.runtime.faults.
FaultPlan` uses the cache like any other.  A hit skips the compile
phases and their ticks, so a test that counts ticks builds its context
with ``plan_cache=None``.

Invalidation: the cache tracks the last fingerprint seen per schema
*object* (weakly, so cached schemas die naturally).  When a schema
reappears with a different fingerprint — DDL ran, e.g. a CREATE VIEW
materialized new classes — every entry compiled against the old
fingerprint is evicted and counted in ``invalidations``.  Keys carry
the fingerprint too, so even an un-evicted stale entry can never be
*served*; eviction just keeps the LRU from filling with dead plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, TYPE_CHECKING
from weakref import WeakKeyDictionary

from repro.runtime.locks import fork_safe_lock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.model.schema import Schema
    from repro.runtime.context import QueryContext

#: Default LRU capacity — entries are plan trees plus their analysis;
#: a few hundred distinct (query, schema, options) shapes comfortably
#: covers the repeated-small-query workloads the cache targets.
DEFAULT_PLAN_CACHE_SIZE = 256


def plan_options_key(ctx: "QueryContext") -> tuple:
    """The plan-relevant slice of a context's options — everything that
    changes what the compile pipeline produces."""
    return (ctx.indexing, ctx.use_optimizer, ctx.shards)


def plan_key(query_ast: Hashable, fingerprint: bytes,
             ctx: "QueryContext") -> tuple:
    """The full cache key for one compilation."""
    return (query_ast, fingerprint, plan_options_key(ctx))


class PlanCache:
    """A size-bounded LRU of compiled query plans.

    ``compile_saved`` accumulates, over all hits, the wall-clock
    seconds the original (miss-time) compilation spent past parsing —
    the headline number reported by ``--analyze`` and by the
    benchmark's ``runtime.plan_compile_saved_ms``.

    Every public method holds an internal lock: the process default is
    shared by all concurrent server sessions, and an unsynchronized
    ``OrderedDict`` corrupts under interleaved ``move_to_end`` /
    ``popitem``.  The widest race left open is check-then-act across
    calls (two threads miss the same key and both compile) — benign,
    the second ``store`` overwrites with an equal plan.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions",
                 "invalidations", "compile_saved", "_data", "_asts",
                 "_schema_fingerprints", "_lock", "__weakref__")

    def __init__(self, maxsize: int = DEFAULT_PLAN_CACHE_SIZE):
        if maxsize <= 0:
            raise ValueError(
                f"plan cache maxsize must be positive, got {maxsize!r}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.compile_saved = 0.0
        #: key -> (compiled plan, compile seconds past parsing)
        self._data: OrderedDict[Hashable, tuple[Any, float]] \
            = OrderedDict()
        #: query text -> parsed AST.  Parsing is pure syntax (no schema
        #: involved), so this memo never needs invalidating; it removes
        #: the tokenizer from the repeat-query path while the *plan*
        #: key stays the AST, so textual variants still share one plan.
        self._asts: OrderedDict[str, Any] = OrderedDict()
        #: Last fingerprint seen per live schema object; a change means
        #: DDL ran and the old fingerprint's entries are dead.
        self._schema_fingerprints: WeakKeyDictionary
        self._schema_fingerprints = WeakKeyDictionary()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def ast_for(self, text: str, parser) -> Any:
        """The parsed AST for ``text``, memoized (LRU, same bound as
        the plan table).  ``parser`` runs outside the lock — parsing is
        pure, so two racing threads at worst parse the same text twice.
        """
        with self._lock:
            entry = self._asts.get(text)
            if entry is not None:
                self._asts.move_to_end(text)
                return entry
        entry = parser(text)
        with self._lock:
            if text not in self._asts \
                    and len(self._asts) >= self.maxsize:
                self._asts.popitem(last=False)
            self._asts[text] = entry
        return entry

    # -- schema tracking --------------------------------------------------

    def note_schema(self, schema: "Schema") -> bytes:
        """Record ``schema``'s current fingerprint, evicting every
        entry compiled against a previous fingerprint of this same
        object (counted in ``invalidations``).  Returns the fingerprint
        for key building."""
        fingerprint = schema.fingerprint()
        with self._lock:
            previous = self._schema_fingerprints.get(schema)
            if previous is not None and previous != fingerprint:
                stale = [key for key in self._data
                         if key[1] == previous]
                for key in stale:
                    del self._data[key]
                self.invalidations += len(stale)
            self._schema_fingerprints[schema] = fingerprint
        return fingerprint

    # -- LRU protocol -----------------------------------------------------

    def lookup(self, key: Hashable) -> tuple[bool, Any, float]:
        """``(hit, compiled, seconds_saved)``; a hit refreshes the
        entry's recency."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return False, None, 0.0
            self._data.move_to_end(key)
            self.hits += 1
            self.compile_saved += entry[1]
            return True, entry[0], entry[1]

    def store(self, key: Hashable, compiled: Any,
              seconds: float) -> None:
        """Insert a compiled plan (costing ``seconds`` to compile past
        parsing), evicting the least-recently-used entry if full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            elif len(self._data) >= self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
            self._data[key] = (compiled, seconds)

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock:
            self._data.clear()
            self._asts.clear()
            self._schema_fingerprints.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0
            self.compile_saved = 0.0

    def counters(self) -> dict[str, Any]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "compile_saved": self.compile_saved,
                "entries": len(self._data),
            }


# ---------------------------------------------------------------------------
# The process-global cache (the QueryContext default)
# ---------------------------------------------------------------------------

_global_plan_cache = PlanCache()
#: Pool workers inherit this cache by fork and compile through it; the
#: server's loop thread holds the lock while it parses as an executor
#: thread forks them.
_global_plan_cache._lock = fork_safe_lock()


def get_global_plan_cache() -> PlanCache:
    return _global_plan_cache


def clear_global_plan_cache() -> None:
    _global_plan_cache.clear()
