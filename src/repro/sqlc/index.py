"""Box indexes over CST columns — the join-acceleration layer.

PR 2's interval prefilter (:mod:`repro.constraints.bounds`) refutes a
box-disjoint pair *after* the pair has been enumerated; every join over
CST columns therefore still pays the full |R|x|S| pair enumeration.
Following the "evaluation of geometric queries" split into a cheap
geometric phase and an exact symbolic phase, this module moves the
geometric phase *in front of* pair enumeration:

* a :class:`BoxIndex` stores, per relation row, the cheap bounding box
  of one CST column (derived from :func:`repro.constraints.bounds`),
  and per variable one *sweep table*: the rows bounding it as
  ``(lo, hi, pos)`` float triples, sorted once, built on first probe;
* :func:`candidate_pairs` sweeps the two indexes' tables along the
  most selective shared variable and emits only the pairs whose boxes
  overlap, in the same deterministic ``(left row, right row)`` order a
  nested loop would produce; shard envelopes
  (:meth:`BoxIndex.envelope`) are the tables' float hulls;
* indexes are built lazily and memoized per
  ``(relation, column, boxer, version)`` in a weak-keyed cache, so
  catalog relations scanned by many joins are indexed once and the
  cache invalidates itself when a relation mutates
  (:attr:`~repro.sqlc.relation.ConstraintRelation.version`).

Box conventions (shared with :mod:`repro.constraints.bounds`): a box is
a ``dict[Variable, Interval]``; ``None`` means *provably empty* (the
row can never match), and ``{}`` means *unknown / unbounded* (the row
must always be kept).  A "boxer" maps a relation cell to a box under
those conventions; :func:`cst_cell_box` is the default for cells whose
CST objects are already expressed over shared variable names, and the
translator builds renaming-aware boxers for its SAT predicates.

Float keys: a table rounds each exact end one ulp *outward*
(:func:`math.nextafter`; an end beyond float range maps outward too),
so each float interval contains its exact one and a float overlap test
keeps a superset of the overlapping pairs; the exact
:func:`repro.constraints.bounds.boxes_disjoint` refines every pair it
keeps.  No probe sorts or compares a ``Fraction``.

Soundness: the index only ever *drops* pairs whose boxes are provably
disjoint, which by :func:`repro.constraints.bounds.boxes_disjoint` is a
proof that the exact CST intersection is empty.  The exact predicate
still runs on every surviving candidate, so a query's answers are
identical with and without the index.
"""

from __future__ import annotations

import math
import sys
from bisect import insort
from typing import Callable
from weakref import WeakKeyDictionary

from repro.constraints import bounds
from repro.model.oid import CstOid, Oid
from repro.runtime import context as context_mod
from repro.runtime.context import QueryContext
from repro.runtime.locks import fork_safe_lock
from repro.sqlc.relation import ConstraintRelation

#: A boxer: cell -> box (``dict`` over-approximation, ``{}`` unknown,
#: ``None`` provably empty).
Boxer = Callable[[Oid], object]


# ---------------------------------------------------------------------------
# Boxers
# ---------------------------------------------------------------------------


def cst_cell_box(cell: Oid) -> object:
    """The cheap bounding box of a CST cell, over the cell's own
    variable names.

    Sound for predicates that intersect CST values *without renaming*
    (variables matched by name).  Non-CST cells — which the exact
    predicate must see, typically to raise — map to the unknown box.
    """
    if not isinstance(cell, CstOid):
        return {}
    try:
        return cell.cst.cheap_box()
    except Exception:
        return {}


# ---------------------------------------------------------------------------
# The index
# ---------------------------------------------------------------------------

_NEG_INF = -math.inf
_POS_INF = math.inf


def _float_toward(value, limit: float) -> float:
    """A float on ``limit``'s side (``-inf`` or ``inf``) of the exact
    ``value``: its nearest float stepped one ulp toward ``limit``.  Past
    float range: ``limit``, or the largest finite float of ``value``'s
    sign when that lies on ``limit``'s side."""
    try:
        return math.nextafter(float(value), limit)
    except OverflowError:
        if (value < 0) == (limit < 0):
            return limit
        return -sys.float_info.max if value < 0 else sys.float_info.max


def _sweep_key(interval: tuple) -> tuple:
    """A :attr:`BoxIndex.bounded` entry as its sweep-table triple."""
    lo, hi, pos = interval
    return _float_toward(lo, _NEG_INF), _float_toward(hi, _POS_INF), pos


#: Lazily-computed :meth:`BoxIndex.envelope` not taken yet (the value
#: itself may legitimately be ``None`` — a provably empty index).
_ENVELOPE_UNSET: object = object()


class BoxIndex:
    """Per-row boxes of one CST column, with one sorted float sweep
    table per variable."""

    __slots__ = ("n_rows", "boxes", "nonempty", "bounded", "unbounded",
                 "_tables", "_envelope")

    def __init__(self, relation: ConstraintRelation, column: str,
                 boxer: Boxer):
        cell_index = relation.column_index(column)
        self.n_rows = len(relation)
        #: Per row position: box dict, ``None`` (provably empty), or
        #: ``{}`` (unknown — always a candidate).
        self.boxes = [boxer(row[cell_index]) for row in relation]
        #: Row positions that can match at all.
        self.nonempty = [pos for pos, box in enumerate(self.boxes)
                         if box is not None]
        #: var -> [(lo, hi, pos)] for rows bounding the variable, in
        #: row-position order (closed-endpoint over-approximation;
        #: exactness is restored by the boxes_disjoint refinement).
        self.bounded: dict = {}
        #: var -> [pos] for nonempty rows *not* bounding the variable.
        self.unbounded: dict = {}
        variables = set()
        for box in self.boxes:
            if box:
                variables.update(box)
        for var in variables:
            intervals, free = [], []
            for pos in self.nonempty:
                interval = self.boxes[pos].get(var)
                if interval is None:
                    free.append(pos)
                else:
                    lo, _lo_open, hi, _hi_open = interval
                    intervals.append((
                        _NEG_INF if lo is None else lo,
                        _POS_INF if hi is None else hi,
                        pos))
            self.bounded[var] = intervals
            self.unbounded[var] = free
        #: var -> its sweep table, built on first use.
        self._tables: dict = {}
        self._envelope = _ENVELOPE_UNSET

    def coverage(self, var) -> int:
        """How many rows the variable actually bounds."""
        return len(self.bounded.get(var, ()))

    def sweep_table(self, var) -> list:
        """``var``'s rows as sorted ``(lo, hi, pos)`` float triples
        (:func:`_sweep_key`), built on first use and never mutated.
        Positions are unique, so an extended index's table equals a
        rebuilt one's."""
        table = self._tables.get(var)
        if table is None:
            table = sorted(map(_sweep_key, self.bounded[var]))
            self._tables[var] = table
        return table

    def envelope(self) -> "dict | None":
        """The bounding envelope of every row in this index, computed
        once per index (indexes are immutable; an extension is a new
        index with a fresh envelope).

        ``None`` means *provably empty* — no row can ever match.  A
        dict maps each variable that **every** nonempty row bounds to
        the float hull ``(min lo, max hi)`` of its sweep table, which
        contains the exact hull; a variable any row leaves free is
        omitted (that row overlaps everything along it, so the hull
        would prove nothing).  An empty dict is the unknown envelope:
        it overlaps everything.
        """
        if self._envelope is _ENVELOPE_UNSET:
            self._envelope = self._compute_envelope()
        return self._envelope

    def _compute_envelope(self) -> "dict | None":
        if not self.nonempty:
            return None
        envelope: dict = {}
        for var, intervals in self.bounded.items():
            if not intervals or self.unbounded.get(var):
                continue
            table = self.sweep_table(var)
            envelope[var] = (table[0][0],
                             max(hi for _lo, hi, _pos in table))
        return envelope

    def extended(self, relation: ConstraintRelation, column: str,
                 boxer: Boxer) -> "BoxIndex":
        """A *new* index covering ``relation``'s current rows, built by
        boxing only the rows appended since this index was taken.

        Copy-on-extend: this index is never mutated, so references
        handed out earlier (a join still sweeping it, a worker that
        shipped it) stay frozen at their row count.  The result is
        structurally identical to ``BoxIndex(relation, column, boxer)``
        — per-variable lists keep ascending row-position order because
        appends only ever add larger positions, and a sweep table this
        index already built takes just the appended rows' keys.
        """
        cell_index = relation.column_index(column)
        fresh_boxes = [boxer(row[cell_index])
                       for row in list(relation)[self.n_rows:]]
        new = BoxIndex.__new__(BoxIndex)
        new.n_rows = len(relation)
        new.boxes = self.boxes + fresh_boxes
        new.nonempty = list(self.nonempty)
        new.bounded = {var: list(iv) for var, iv in self.bounded.items()}
        new.unbounded = {var: list(ps)
                         for var, ps in self.unbounded.items()}
        for box in fresh_boxes:
            if box:
                for var in box:
                    if var not in new.bounded:
                        # A variable first bounded by an appended row:
                        # every earlier nonempty row leaves it free.
                        new.bounded[var] = []
                        new.unbounded[var] = list(self.nonempty)
        for offset, box in enumerate(fresh_boxes):
            pos = self.n_rows + offset
            if box is None:
                continue
            new.nonempty.append(pos)
            for var in new.bounded:
                interval = box.get(var)
                if interval is None:
                    new.unbounded[var].append(pos)
                else:
                    lo, _lo_open, hi, _hi_open = interval
                    new.bounded[var].append((
                        _NEG_INF if lo is None else lo,
                        _POS_INF if hi is None else hi,
                        pos))
        new._tables = {}
        # A copy: a concurrent probe may add a table to this index.
        for var, table in self._tables.copy().items():
            appended = new.bounded[var][len(self.bounded[var]):]
            if appended:
                table = table.copy()
                for key in map(_sweep_key, appended):
                    insort(table, key)
            new._tables[var] = table
        new._envelope = _ENVELOPE_UNSET
        return new


def envelopes_disjoint(left: "dict | None", right: "dict | None") -> bool:
    """Are two :meth:`BoxIndex.envelope` values provably disjoint?

    ``True`` only when *every* cross pair of rows has disjoint boxes:
    either side is empty, or the float hulls are strictly separated
    along a variable both sides bound on all rows.  Each float hull
    contains its exact hull, so then each left box's interval lies
    entirely below (or above) each right box's, which is exactly what
    :func:`repro.constraints.bounds.boxes_disjoint` would conclude
    pair by pair.  Strict inequality keeps the test sound for open
    endpoints: touching hulls are never pruned.
    """
    if left is None or right is None:
        return True
    for var, (left_lo, left_hi) in left.items():
        other = right.get(var)
        if other is None:
            continue
        right_lo, right_hi = other
        if left_hi < right_lo or right_hi < left_lo:
            return True
    return False


# ---------------------------------------------------------------------------
# Index cache (weak-keyed on the relation, invalidated by version)
# ---------------------------------------------------------------------------

_index_cache: WeakKeyDictionary = WeakKeyDictionary()

#: Catalog relations are shared by every query on their database, so
#: concurrent sessions look up, build and prune the same entries.
_CACHE_LOCK = fork_safe_lock()


def index_for(relation: ConstraintRelation, column: str,
              boxer: Boxer,
              ctx: QueryContext | None = None) -> BoxIndex:
    """The (possibly cached) box index of ``relation[column]``.

    A renamed view of a frozen relation is indexed as that relation
    (:attr:`~repro.sqlc.relation.ConstraintRelation.origin`): a box
    index holds row positions and boxes, no column names, so every
    query scanning a catalog relation — under whatever variable names
    — shares the one index.

    The boxer participates by equality.  The translator's boxers are
    values (equal for the same declared variables and arguments), so
    two plans, or one plan compiled twice, hit the same entries; a
    plain function is equal only to itself.

    Entries are keyed by ``(column, boxer, version)`` — the version is
    *part of the key*, so an index returned for one version is never
    revised under a caller's feet when the relation mutates and is
    probed again mid-scan (stale-read safety for interleaved mutation
    and query).  On a version miss, when every missed mutation is an
    appended row (the relation's version delta equals its row-count
    delta — :meth:`~ConstraintRelation.add_row` is the only version
    bump), the newest cached index is *extended* with just the new
    rows (:meth:`BoxIndex.extended`); anything else — including
    derived relations whose rows were assigned wholesale — rebuilds
    from scratch.  Older versions are pruned from the cache once
    superseded; dropping the relation drops its indexes (weak keys).
    """
    if relation.origin is not None:
        relation, columns = relation.origin
        column = columns[column]
    with _CACHE_LOCK:
        per_relation = _index_cache.get(relation)
        if per_relation is None:
            per_relation = {}
            _index_cache[relation] = per_relation
        key = (column, boxer, relation.version)
        hit = per_relation.get(key)
        if hit is not None:
            return hit
        newest_version, newest = -1, None
        for (col, bxr, version), index in per_relation.items():
            if col == column and bxr == boxer \
                    and version > newest_version:
                newest_version, newest = version, index
        appended_only = (
            newest is not None
            and newest_version < relation.version
            and relation.version - newest_version
            == len(relation) - newest.n_rows
            and len(relation) >= newest.n_rows)
        if appended_only:
            built = newest.extended(relation, column, boxer)
            context_mod.resolve(ctx).stats.index_extends += 1
        else:
            built = BoxIndex(relation, column, boxer)
            context_mod.resolve(ctx).stats.index_builds += 1
        stale = [k for k in per_relation
                 if k[0] == column and k[1] == boxer
                 and k[2] != relation.version]
        for k in stale:
            del per_relation[k]
        per_relation[key] = built
        return built


def clear_index_cache() -> None:
    _index_cache.clear()


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def _sweep(lefts: list, rights: list) -> list[tuple[int, int]]:
    """All (left pos, right pos) pairs whose closed intervals overlap,
    by one sweep over two :meth:`BoxIndex.sweep_table` lists (already
    sorted by start point)."""
    out: list[tuple[int, int]] = []
    if not lefts or not rights:
        return out
    i = j = 0
    n_left, n_right = len(lefts), len(rights)
    active_left: list[tuple] = []   # (hi, pos) still open
    active_right: list[tuple] = []
    while i < n_left or j < n_right:
        if j >= n_right or (i < n_left and lefts[i][0] <= rights[j][0]):
            lo, hi, pos = lefts[i]
            i += 1
            live = []
            for other in active_right:
                if other[0] >= lo:
                    live.append(other)
                    out.append((pos, other[1]))
            active_right = live
            active_left.append((hi, pos))
        else:
            lo, hi, pos = rights[j]
            j += 1
            live = []
            for other in active_left:
                if other[0] >= lo:
                    live.append(other)
                    out.append((other[1], pos))
            active_left = live
            active_right.append((hi, pos))
    return out


def _sweep_variable(left: BoxIndex, right: BoxIndex):
    """The shared variable with the highest pruning power: the one
    bounding the most rows on both sides (product of coverages)."""
    best, best_score = None, 0
    for var in left.bounded:
        score = left.coverage(var) * right.coverage(var)
        if score > best_score:
            best, best_score = var, score
    return best


def candidate_pairs(left: BoxIndex, right: BoxIndex,
                    ctx: QueryContext | None = None
                    ) -> list[tuple[int, int]]:
    """Row-position pairs whose boxes overlap, sorted in nested-loop
    order ``(left, right)``.

    The coarse phase (a sweep of both sides' float tables on the best
    shared variable) emits a superset of the box-overlapping pairs;
    each coarse pair is then refined with the exact multi-variable
    :func:`repro.constraints.bounds.boxes_disjoint` test.  Pairs never
    emitted — separated along the sweep variable, or provably empty on
    either side — are pruned without any per-pair work at all.
    """
    ctx = context_mod.resolve(ctx)
    total = left.n_rows * right.n_rows
    var = _sweep_variable(left, right)
    if var is None:
        coarse = [(l, r) for l in left.nonempty for r in right.nonempty]
    else:
        coarse = _sweep(left.sweep_table(var), right.sweep_table(var))
        # Rows unbounded on the sweep variable overlap everything
        # along it: pair them with every nonempty row of the far side.
        if right.unbounded[var]:
            free = right.unbounded[var]
            for lo, hi, pos in left.bounded[var]:
                coarse.extend((pos, other) for other in free)
        if left.unbounded[var]:
            for pos in left.unbounded[var]:
                coarse.extend((pos, other) for other in right.nonempty)
    ctx.stats.index_probes += len(coarse)
    candidates = [
        (l, r) for l, r in coarse
        if not bounds.boxes_disjoint(left.boxes[l], right.boxes[r],
                                     ctx=ctx)]
    candidates.sort()
    ctx.stats.index_candidates += len(candidates)
    ctx.stats.candidates_pruned += total - len(candidates)
    return candidates
