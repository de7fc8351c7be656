"""Hash/range-partitioned constraint relations — the sharded storage
half of scatter-gather execution.

A :class:`ShardedConstraintRelation` is a drop-in
:class:`~repro.sqlc.relation.ConstraintRelation` (same rows, same
global row order, same operators) that additionally routes every row
into one of ``shards`` internal shard relations:

* ``partition_by=<column>`` — **range partitioning** on a cheap
  spatial key of that column's cells (the midpoint of a CST cell's
  bounding box along its first variable, or a numeric literal's
  value).  Boundaries are quantiles of the keys seen when the relation
  is first *sealed* (at :data:`SEAL_MIN` rows, or on first shard
  access), so spatially close constraints land in the same shard and
  the per-shard bounding envelopes stay tight.  Rows arriving after
  sealing route by the fixed boundaries — distribution drift can
  loosen envelopes (a performance matter) but never correctness.
* ``partition_by=None`` — **round-robin** by arrival position: no
  locality, hence no envelope pruning, but ingest and per-shard
  incremental maintenance still apply.

Each shard is itself a plain ``ConstraintRelation``, so the existing
version-keyed cache maintains a *per-shard*
:class:`~repro.sqlc.index.BoxIndex` incrementally: a mutation burst
extends each touched shard's index with just its appended rows
(copy-on-extend) instead of rebuilding anything relation-wide.
``register_index`` makes that maintenance *eager* — after the first
query registers its (column, boxer), every ``add_rows`` batch brings
the touched shards' indexes current at ingest time, so the next query
pays no build at all.

Routing is an internal layout decision: queries that treat the
relation as unsharded (plain ``IndexJoin``, ``Select``, the naive
evaluator) read ``_rows`` exactly as before and see identical results.
The scatter-gather consumer is :func:`scatter_pairs`, used by
:class:`~repro.sqlc.algebra.ShardedIndexJoin`: per-shard indexes are
probed pairwise, shard *pairs* whose bounding envelopes are disjoint
are pruned wholesale (``ExecutionStats.shard_pairs_pruned``), and the
surviving shard-local candidates are mapped back to global row
positions and sorted — the same candidate set, in the same nested-loop
order, as one monolithic index would produce.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Iterable, Sequence

from repro.errors import EvaluationError
from repro.model.oid import CstOid, LiteralOid, Oid
from repro.runtime import context as context_mod
from repro.runtime.context import QueryContext
from repro.sqlc import index as index_mod
from repro.sqlc.index import Boxer, cst_cell_box
from repro.sqlc.relation import ConstraintRelation

#: Rows required before range boundaries are derived.  Until then rows
#: stay unrouted (they are still visible in the global row list); the
#: first shard access seals with whatever is present.
SEAL_MIN = 64


def _spatial_key(cell: Oid) -> float | None:
    """A cheap 1-D placement key for range routing, or ``None`` when
    the cell carries no usable geometry (routing then falls back to a
    deterministic hash bucket)."""
    if isinstance(cell, CstOid):
        box = cst_cell_box(cell)
        if box:
            # The lexicographically first variable keeps the key choice
            # stable across rows that bound the same variable set.
            interval = box[min(box, key=str)]
            lo, _lo_open, hi, _hi_open = interval
            if lo is not None and hi is not None:
                return (float(lo) + float(hi)) / 2.0
            if lo is not None:
                return float(lo)
            if hi is not None:
                return float(hi)
        return None
    if isinstance(cell, LiteralOid):
        value = cell.value
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, float)) or hasattr(value,
                                                      "numerator"):
            try:
                return float(value)
            except (OverflowError, TypeError, ValueError):
                return None
    return None


def _hash_bucket(cell: Oid, shards: int) -> int:
    """Deterministic (cross-process stable) fallback bucket — CRC32 of
    the cell's repr, *not* ``hash()``, which is salted for strings."""
    return zlib.crc32(repr(cell).encode("utf-8", "replace")) % shards


class ShardedConstraintRelation(ConstraintRelation):
    """A constraint relation partitioned into ``shards`` internal
    shard relations (see the module docstring).

    The global row list and mutation version behave exactly like the
    base class — sharding only adds routing metadata, so every
    consumer that does not know about shards keeps working unchanged.
    """

    __slots__ = ("shard_count", "partition_by", "_shard_rels",
                 "_shard_positions", "_boundaries", "_routed",
                 "_index_targets")

    def __init__(self, name: str, columns: Sequence[str],
                 rows: Iterable[Sequence] = (), *,
                 shards: int, partition_by: str | None = None):
        if shards < 2:
            raise EvaluationError(
                f"a sharded relation needs >= 2 shards, got {shards!r}")
        self.shard_count = shards
        self.partition_by = partition_by
        self._shard_rels = [
            ConstraintRelation(f"{name}#{i}", columns)
            for i in range(shards)]
        #: Per shard: the *global* row positions it owns, ascending
        #: (rows are routed in arrival order) — the map scatter-gather
        #: uses to translate shard-local candidates back.
        self._shard_positions: list[list[int]] = [
            [] for _ in range(shards)]
        #: Range boundaries (len ``shards - 1``), or ``None`` until
        #: sealed.  Round-robin relations never set boundaries.
        self._boundaries: list[float] | None = None
        #: Rows [0, _routed) are already distributed into shards.
        self._routed = 0
        #: Eagerly maintained per-shard box indexes: (column, boxer).
        self._index_targets: list[tuple[str, Boxer]] = []
        super().__init__(name, columns)
        if partition_by is not None:
            self.column_index(partition_by)  # validates the column
        rows = list(rows)
        if rows:
            self.add_rows(rows)

    # -- ingest ----------------------------------------------------------

    def add_row(self, row: Sequence) -> None:
        super().add_row(row)
        # Single-row appends route (so shard membership stays current)
        # but defer index maintenance to the next probe — the cached
        # per-shard index then *extends* by exactly the burst's rows.
        self._route_backlog(force=False)

    def add_rows(self, rows: Iterable[Sequence]) -> int:
        appended = super().add_rows(rows)
        if appended:
            touched = self._route_backlog(force=False)
            if touched:
                self._refresh_shards(touched)
        return appended

    # -- routing ---------------------------------------------------------

    @property
    def sealed(self) -> bool:
        """Have range boundaries been fixed (always true for
        round-robin)?"""
        return self.partition_by is None or self._boundaries is not None

    def _seal(self) -> None:
        """Fix the range boundaries from the keys of the rows present
        now (quantiles, so the initial batch spreads evenly)."""
        if self.sealed:
            return
        cell_at = self.column_index(self.partition_by)
        keys = sorted(
            key for row in self._rows
            if (key := _spatial_key(row[cell_at])) is not None)
        if keys:
            self._boundaries = [
                keys[(i * len(keys)) // self.shard_count]
                for i in range(1, self.shard_count)]
        else:
            self._boundaries = []

    def _shard_of(self, position: int, row: tuple) -> int:
        if self.partition_by is None:
            return position % self.shard_count
        cell = row[self.column_index(self.partition_by)]
        key = _spatial_key(cell)
        if key is None:
            return _hash_bucket(cell, self.shard_count)
        return bisect_right(self._boundaries, key)

    def _route_backlog(self, force: bool) -> set[int]:
        """Distribute every unrouted row into its shard.  Range
        relations wait for :data:`SEAL_MIN` rows (or ``force``, used by
        the first shard access) before fixing boundaries."""
        if not self.sealed:
            if not force and len(self._rows) < SEAL_MIN:
                return set()
            self._seal()
        touched: set[int] = set()
        if self._routed == len(self._rows):
            return touched
        per_shard: list[list] = [[] for _ in range(self.shard_count)]
        for position in range(self._routed, len(self._rows)):
            row = self._rows[position]
            shard = self._shard_of(position, row)
            per_shard[shard].append(row)
            self._shard_positions[shard].append(position)
            touched.add(shard)
        for shard in touched:
            # One bulk append per touched shard: the shard's version
            # delta equals its row delta, so the per-shard BoxIndex
            # cache takes its incremental-extend path.
            self._shard_rels[shard].add_rows(per_shard[shard])
        self._routed = len(self._rows)
        return touched

    # -- per-shard derived structures -------------------------------------

    def register_index(self, column: str, boxer: Boxer,
                       ctx: QueryContext | None = None) -> None:
        """Maintain a per-shard box index of ``column`` under ``boxer``
        eagerly: built now, extended on every future ``add_rows``
        batch (boxers compare as in the index cache)."""
        for col, bxr in self._index_targets:
            if col == column and bxr == boxer:
                return
        self._index_targets.append((column, boxer))
        ctx = context_mod.resolve(ctx)
        for rel in self._shard_rels:
            index_mod.index_for(rel, column, boxer, ctx=ctx)

    def _refresh_shards(self, touched: set[int]) -> None:
        """Bring the registered indexes of the touched shards current —
        once per batch, through the incremental-extend cache."""
        ctx = context_mod.current_context()
        for shard in touched:
            rel = self._shard_rels[shard]
            for column, boxer in self._index_targets:
                index_mod.index_for(rel, column, boxer, ctx=ctx)

    # -- shard-preserving operators ----------------------------------------

    def rename(self, mapping: dict[str, str],
               name: str | None = None) -> "ShardedConstraintRelation":
        """Shard-preserving rename: renaming never moves a row, so the
        result keeps the routing (positions, boundaries, sealed state)
        and renames each shard in place.  This is what lets the
        optimizer treat ``Rename(Scan(sharded))`` as a sharded side —
        the plan shape the translator emits for aliased scans.  A view
        of a frozen relation shares the routing instead of copying it,
        and its shards are views of the frozen shards."""
        self._route_backlog(force=True)
        new_name = name or self._name
        result = ShardedConstraintRelation(
            new_name,
            [mapping.get(c, c) for c in self._columns],
            shards=self.shard_count,
            partition_by=(mapping.get(self.partition_by,
                                      self.partition_by)
                          if self.partition_by is not None else None))
        self._share_rows(result)
        result._shard_rels = [
            rel.rename(mapping, name=f"{new_name}#{i}")
            for i, rel in enumerate(self._shard_rels)]
        result._shard_positions = self._shard_positions if self._frozen \
            else [list(p) for p in self._shard_positions]
        result._boundaries = (None if self._boundaries is None
                              else list(self._boundaries))
        result._routed = self._routed
        return result

    def freeze(self) -> "ShardedConstraintRelation":
        """Read-only from here on: the rows are routed and the
        boundaries fixed now, so no later reader seals the relation
        under another reader's feet."""
        self._route_backlog(force=True)
        for rel in self._shard_rels:
            rel.freeze()
        return super().freeze()

    # -- shard access ------------------------------------------------------

    def shard_tables(self) -> list[tuple[ConstraintRelation, list[int]]]:
        """``(shard relation, global positions)`` per shard, routing
        any backlog first (this is what seals a young range
        relation)."""
        self._route_backlog(force=True)
        return list(zip(self._shard_rels, self._shard_positions))

    def shard_sizes(self) -> list[int]:
        self._route_backlog(force=True)
        return [len(rel) for rel in self._shard_rels]

    def __repr__(self) -> str:
        return (f"ShardedConstraintRelation({self._name!r}, "
                f"{len(self._rows)} rows x {self.arity} cols, "
                f"{self.shard_count} shards"
                + (f" by {self.partition_by!r}"
                   if self.partition_by else " round-robin") + ")")


# ---------------------------------------------------------------------------
# Scatter-gather candidate generation
# ---------------------------------------------------------------------------


def scatter_pairs(left: ShardedConstraintRelation,
                  right: ShardedConstraintRelation,
                  left_column: str, right_column: str,
                  left_boxer: Boxer, right_boxer: Boxer,
                  ctx: QueryContext | None = None
                  ) -> list[tuple[int, int]]:
    """Global candidate (left, right) row-position pairs for a sharded
    join, with shard-pair envelope pruning.

    Equivalent to ``candidate_pairs`` over two monolithic indexes: a
    shard pair is skipped only when the bounding envelopes of the two
    shards are provably disjoint — then *every* cross pair has disjoint
    boxes and the monolithic index would have refuted each one
    individually.  Surviving shard pairs probe their (incrementally
    maintained) per-shard indexes; shard-local positions map back
    through each shard's global-position list and the union is sorted
    into nested-loop order.
    """
    ctx = context_mod.resolve(ctx)
    left.register_index(left_column, left_boxer, ctx=ctx)
    right.register_index(right_column, right_boxer, ctx=ctx)
    left_shards = [
        (positions, index_mod.index_for(rel, left_column, left_boxer,
                                        ctx=ctx), len(rel))
        for rel, positions in left.shard_tables()]
    right_shards = [
        (positions, index_mod.index_for(rel, right_column, right_boxer,
                                        ctx=ctx), len(rel))
        for rel, positions in right.shard_tables()]

    pairs: list[tuple[int, int]] = []
    probed = 0
    for left_positions, left_index, left_size in left_shards:
        left_env = left_index.envelope()
        for right_positions, right_index, right_size in right_shards:
            if index_mod.envelopes_disjoint(left_env,
                                            right_index.envelope()):
                # Every cross pair died without per-pair work; keep the
                # relation-level pruning counter meaningful.
                ctx.stats.candidates_pruned += left_size * right_size
                continue
            probed += 1
            pairs.extend(
                (left_positions[l], right_positions[r])
                for l, r in index_mod.candidate_pairs(
                    left_index, right_index, ctx=ctx))
    pairs.sort()
    ctx.stats.shard_joins += 1
    ctx.stats.shard_pairs_pruned += \
        len(left_shards) * len(right_shards) - probed
    ctx.stats.shard_pairs_probed += probed
    return pairs
