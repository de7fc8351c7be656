"""Constraint-level memoization — the engine's second hot-path layer.

Canonical keys are the paper's logical oids, and they get recomputed
per join row; every recomputation bottoms out in exact simplex runs.
This module caches the three expensive decision results
(``is_satisfiable``, ``canonical_conjunctive``,
``implication.atom_redundant_in``) behind a size-bounded LRU keyed on
the structural content of the inputs — a conjunction stores normalized
integer rows (:mod:`repro.constraints.atoms`), so the conjunction
itself, compared by column names and set of rows, *is* a structural
key, and keys built from canonical forms are alpha-invariant by
construction.

Guard interaction (the part that keeps the resource-governance layer
honest):

* a cache **hit** spends no pivot/branch/canonical budget — the work
  was genuinely not redone — but still runs one
  :meth:`~repro.runtime.guard.ExecutionGuard.checkpoint`, so
  cancellation and wall-clock deadlines are observed on the fast path;
* a guard carrying a :class:`~repro.runtime.faults.FaultPlan` reads
  and writes the cache like any other: a value is stored only after
  its computation returns, so an injected failure, an exhaustion or a
  cancel is never cached.  A warm cache does move a fault schedule's
  ticks (a hit spends no pivots and makes no simplex call), so a test
  that counts ticks builds its context with ``cache=None`` or a fresh
  :class:`ConstraintCache`.

The cache is process-global by default and travels inside the active
:class:`~repro.runtime.context.QueryContext`, whose
:meth:`~repro.runtime.context.QueryContext.memoized` is the lookup
protocol; ``QueryContext(cache=...)`` (or ``derive(cache=...)``) scopes
a different cache, or ``None`` to disable, which is what the CLI's
``--no-cache``/``--cache-size`` flags and the A/B benchmarks use.  The
context's ``prefilter`` option gates the interval prefilter
(:mod:`repro.constraints.bounds`) the same way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

from repro.runtime.locks import fork_safe_lock

#: Default LRU capacity — entries are single booleans or conjunction
#: objects, so memory per entry is dominated by the key's conjunction rows.
DEFAULT_CACHE_SIZE = 4096


class ConstraintCache:
    """A size-bounded LRU of constraint-level decision results.

    ``simplex_saved`` accumulates, over all hits, the number of simplex
    solves the original (miss-time) computation performed — the
    headline effectiveness number reported by ``ExecutionStats``.

    Methods are individually thread-safe (one internal lock): the
    process-global cache is shared by every concurrent server session,
    and ``OrderedDict`` recency updates corrupt under unsynchronized
    interleaving.  Check-then-act across calls (two threads miss the
    same key, both compute, both store) stays possible and is benign —
    decision results are deterministic, the second store overwrites
    with an equal value.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions",
                 "simplex_saved", "_data", "_lock")

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize <= 0:
            raise ValueError(
                f"cache maxsize must be positive, got {maxsize!r}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.simplex_saved = 0
        # (value, cost, stored key): a refresh moves an entry by its
        # stored key, found by identity, so it compares a key once.
        self._data: OrderedDict[Hashable, tuple[object, int, Hashable]] \
            = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def lookup(self, key: Hashable) -> tuple[bool, object]:
        """``(hit, value)``; a hit refreshes the entry's recency."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return False, None
            self._data.move_to_end(entry[2])
            self.hits += 1
            self.simplex_saved += entry[1]
            return True, entry[0]

    def store(self, key: Hashable, value: object, cost: int = 0) -> None:
        """Insert ``value`` (costing ``cost`` simplex solves to
        compute), evicting the least-recently-used entry if full."""
        with self._lock:
            entry = self._data.get(key)
            if entry is not None:
                key = entry[2]
                self._data.move_to_end(key)
            elif len(self._data) >= self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
            self._data[key] = (value, cost, key)

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.simplex_saved = 0

    def absorb(self, delta: dict) -> None:
        """Fold a worker process's counter deltas into this cache (the
        entries a pool worker stored stay in that worker, but its
        lookup traffic belongs in the parent's account)."""
        with self._lock:
            self.hits += delta.get("hits", 0)
            self.misses += delta.get("misses", 0)
            self.evictions += delta.get("evictions", 0)
            self.simplex_saved += delta.get("simplex_saved", 0)

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "simplex_saved": self.simplex_saved,
                "entries": len(self._data),
            }


# ---------------------------------------------------------------------------
# The process-global cache (the QueryContext default)
# ---------------------------------------------------------------------------

_global_cache = ConstraintCache()
#: Pool workers inherit this cache by fork and read it; a server thread
#: may hold the lock while another thread forks them.
_global_cache._lock = fork_safe_lock()


def get_global_cache() -> ConstraintCache:
    return _global_cache


def clear_global_cache() -> None:
    _global_cache.clear()
