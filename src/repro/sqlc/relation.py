"""Flat constraint relations — the data structure of [BJM93]-style
"SQL with linear constraints", the paper's Section 5 translation target.

A :class:`ConstraintRelation` is an ordinary named relation whose cells
are logical oids; since CST objects are oids (:class:`CstOid`), a cell
may hold a constraint, which is what makes the relation a *constraint
relation*.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import EvaluationError
from repro.model.oid import Oid, as_oid


class ConstraintRelation:
    """An immutable-by-convention flat relation.

    Rows are tuples of oids aligned with ``columns``.  Duplicate rows
    are kept by default (bag semantics, like SQL); :meth:`distinct`
    removes them.

    A *frozen* relation (:meth:`freeze`) is read-only: the flat catalog
    of a database freezes its relations because every query on that
    database scans the same objects.  Renaming a frozen relation gives
    a view that shares its rows and records where they came from
    (:attr:`origin`), so structures derived from the rows are cached
    once for the relation and all its views.
    """

    __slots__ = ("_name", "_columns", "_rows", "_index", "_version",
                 "_observer", "_batch_observer", "_frozen", "_origin",
                 "__weakref__")

    def __init__(self, name: str, columns: Sequence[str],
                 rows: Iterable[Sequence] = ()):
        self._name = name
        self._columns = tuple(columns)
        if len(set(self._columns)) != len(self._columns):
            raise EvaluationError(
                f"duplicate column names in relation {name!r}: "
                f"{self._columns}")
        self._rows: list[tuple[Oid, ...]] = []
        self._index = {c: i for i, c in enumerate(self._columns)}
        self._version = 0
        self._observer = None
        self._batch_observer = None
        self._frozen = False
        self._origin: tuple[ConstraintRelation, dict[str, str]] | None \
            = None
        rows = list(rows)
        if rows:
            self.add_rows(rows)

    # -- construction ------------------------------------------------------

    def set_observer(self, observer, batch_observer=None) -> None:
        """Subscribe ``observer(relation, row)`` to :meth:`add_row`
        (or ``None`` to unsubscribe) — the durable store's write-ahead
        log hooks every appended row here (:mod:`repro.storage`).

        ``batch_observer(relation, rows)``, when given, receives one
        call per :meth:`add_rows` batch instead of one per row, so a
        bulk ingest costs one WAL record; without it ``add_rows`` falls
        back to per-row ``observer`` notifications."""
        self._observer = observer
        self._batch_observer = batch_observer

    def freeze(self) -> "ConstraintRelation":
        """Make the relation read-only, for good; returns it."""
        self._frozen = True
        return self

    @property
    def origin(self) -> "tuple[ConstraintRelation, dict[str, str]] | None":
        """For a renamed view of a frozen relation: that relation and
        the map from this view's column names to its own.  ``None`` for
        every other relation."""
        return self._origin

    def _prepare_row(self, row: Sequence) -> tuple[Oid, ...]:
        if self._frozen:
            raise EvaluationError(
                f"relation {self._name!r} is read-only: it belongs to "
                "a catalog that queries share")
        values = tuple(as_oid(v) for v in row)
        if len(values) != len(self._columns):
            raise EvaluationError(
                f"cannot add a {len(values)}-value row to relation "
                f"{self._name!r}: it has {len(self._columns)} columns "
                f"{self._columns}")
        return values

    def add_row(self, row: Sequence) -> None:
        values = self._prepare_row(row)
        self._rows.append(values)
        self._version += 1
        if self._observer is not None:
            self._observer(self, values)

    def add_rows(self, rows: Iterable[Sequence]) -> int:
        """Bulk append: validates and appends every row, bumping the
        version once per row (so derived-structure caches still see an
        append-only delta) but notifying observers once per *batch*.
        Returns the number of rows appended."""
        prepared = [self._prepare_row(row) for row in rows]
        if not prepared:
            return 0
        self._rows.extend(prepared)
        self._version += len(prepared)
        if self._batch_observer is not None:
            self._batch_observer(self, prepared)
        elif self._observer is not None:
            for values in prepared:
                self._observer(self, values)
        return len(prepared)

    # -- inspection ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    @property
    def arity(self) -> int:
        return len(self._columns)

    @property
    def version(self) -> int:
        """Mutation counter — bumped by every :meth:`add_row`.

        Derived structures (the box indexes of
        :mod:`repro.sqlc.index`) cache per ``(relation, version)`` and
        are thereby invalidated when the relation mutates.
        """
        return self._version

    def column_index(self, column: str) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise EvaluationError(
                f"relation {self._name!r} has no column {column!r}; "
                f"columns are {self._columns}") from None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Oid, ...]]:
        return iter(self._rows)

    def cell(self, row: tuple[Oid, ...], column: str) -> Oid:
        return row[self.column_index(column)]

    def row_dict(self, row: tuple[Oid, ...]) -> dict[str, Oid]:
        return dict(zip(self._columns, row))

    # -- basic operators (fluent style; the plan nodes in algebra.py
    # compose these lazily) -----------------------------------------------------

    def rename(self, mapping: dict[str, str],
               name: str | None = None) -> "ConstraintRelation":
        columns = [mapping.get(c, c) for c in self._columns]
        result = ConstraintRelation(name or self._name, columns)
        self._share_rows(result)
        return result

    def _share_rows(self, view: "ConstraintRelation") -> None:
        """Give ``view`` (this relation under other column names) the
        rows: the list itself and an :attr:`origin` when frozen, a copy
        otherwise."""
        if not self._frozen:
            view._rows = list(self._rows)
            return
        base, back = self._origin or (self, None)
        view._rows = self._rows
        view._frozen = True
        view._origin = (base, {
            new: old if back is None else back[old]
            for old, new in zip(self._columns, view._columns)})

    def project(self, columns: Sequence[str],
                name: str | None = None) -> "ConstraintRelation":
        indexes = [self.column_index(c) for c in columns]
        result = ConstraintRelation(name or self._name, columns)
        if indexes == list(range(len(self._columns))):
            # Identity projection: the row tuples are immutable, so
            # they are shared instead of being rebuilt cell-by-cell.
            result._rows = list(self._rows)
        else:
            result._rows = [tuple(row[i] for i in indexes)
                            for row in self._rows]
        return result

    def select(self, predicate: Callable[[dict[str, Oid]], bool],
               name: str | None = None) -> "ConstraintRelation":
        result = ConstraintRelation(name or self._name, self._columns)
        # Kept rows are the original tuples (never copied); only the
        # per-row environment dict for the predicate is fresh.
        columns = self._columns
        result._rows = [row for row in self._rows
                        if predicate(dict(zip(columns, row)))]
        return result

    def distinct(self) -> "ConstraintRelation":
        seen: set[tuple[Oid, ...]] = set()
        result = ConstraintRelation(self._name, self._columns)
        for row in self._rows:
            if row not in seen:
                seen.add(row)
                result._rows.append(row)
        return result

    def union(self, other: "ConstraintRelation") -> "ConstraintRelation":
        if self._columns != other._columns:
            raise EvaluationError(
                f"union of incompatible relations {self._columns} vs "
                f"{other._columns}")
        result = ConstraintRelation(self._name, self._columns)
        result._rows = self._rows + other._rows
        return result

    def natural_join(self, other: "ConstraintRelation",
                     name: str | None = None) -> "ConstraintRelation":
        """Hash join on the shared column names."""
        shared = [c for c in self._columns if c in other._index]
        other_only = [c for c in other._columns if c not in self._index]
        out_columns = list(self._columns) + other_only
        result = ConstraintRelation(
            name or f"({self._name}*{other._name})", out_columns)

        if not shared:
            for left in self._rows:
                for right in other._rows:
                    result._rows.append(
                        left + tuple(right[other.column_index(c)]
                                     for c in other_only))
            return result

        table: dict[tuple, list[tuple[Oid, ...]]] = {}
        shared_other = [other.column_index(c) for c in shared]
        for right in other._rows:
            key = tuple(right[i] for i in shared_other)
            table.setdefault(key, []).append(right)
        shared_self = [self.column_index(c) for c in shared]
        other_only_idx = [other.column_index(c) for c in other_only]
        for left in self._rows:
            key = tuple(left[i] for i in shared_self)
            for right in table.get(key, ()):
                result._rows.append(
                    left + tuple(right[i] for i in other_only_idx))
        return result

    # -- display -----------------------------------------------------------------

    def __repr__(self) -> str:
        return (f"ConstraintRelation({self._name!r}, "
                f"{len(self._rows)} rows x {self.arity} cols)")

    def pretty(self, limit: int = 20) -> str:
        lines = [" | ".join(self._columns)]
        for row in self._rows[:limit]:
            lines.append(" | ".join(str(v) for v in row))
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)
