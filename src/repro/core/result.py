"""Query results.

XSQL queries produce relations of oids with set semantics; with an
``OID FUNCTION OF`` clause each tuple additionally carries its own
object identity (used by views to materialize new objects).

Both engines produce rows as a :class:`QueryStream`, and
:meth:`QueryStream.result` is the one place a query's rows and
warnings become a :class:`ResultSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from repro.errors import QueryCancelled, ResourceExhausted
from repro.model.oid import CstOid, LiteralOid, Oid
from repro.runtime.guard import should_degrade

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.context import ExecutionStats, QueryContext


@dataclass(frozen=True)
class ResultRow:
    values: tuple[Oid, ...]
    oid: Oid | None = None

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        return self.values[index]


class ResultSet:
    """An ordered, duplicate-free collection of result rows."""

    def __init__(self, columns: tuple[str, ...]):
        self._columns = columns
        self._rows: list[ResultRow] = []
        self._seen: set[tuple] = set()
        self._warnings: list[str] = []

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    @property
    def warnings(self) -> tuple[str, ...]:
        """Execution warnings (e.g. "partial result: deadline
        exceeded" under ``on_exhaustion="degrade"``)."""
        return tuple(self._warnings)

    @property
    def is_partial(self) -> bool:
        """True when a resource budget tripped and rows may be missing."""
        return bool(self._warnings)

    def add_warning(self, message: str) -> None:
        self._warnings.append(message)

    def add(self, row: ResultRow) -> None:
        key = (row.values, row.oid)
        if key not in self._seen:
            self._seen.add(key)
            self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def rows(self) -> tuple[ResultRow, ...]:
        return tuple(self._rows)

    def column(self, name: str) -> list[Oid]:
        index = self._columns.index(name)
        return [row.values[index] for row in self._rows]

    def first(self) -> ResultRow:
        if not self._rows:
            raise LookupError("empty result")
        return self._rows[0]

    def single(self) -> ResultRow:
        if len(self._rows) != 1:
            raise LookupError(
                f"expected exactly one row, found {len(self._rows)}")
        return self._rows[0]

    def scalars(self, column: str | int = 0) -> list:
        """A column as plain Python values: numbers/strings unwrapped,
        CST oids as CSTObject instances, other oids as-is."""
        if isinstance(column, str):
            index = self._columns.index(column)
        else:
            index = column
        out = []
        for row in self._rows:
            value = row.values[index]
            if isinstance(value, LiteralOid):
                raw = value.value
                out.append(float(raw) if isinstance(raw, Fraction)
                           and raw.denominator != 1 else
                           int(raw) if isinstance(raw, Fraction)
                           else raw)
            elif isinstance(value, CstOid):
                out.append(value.cst)
            else:
                out.append(value)
        return out

    def pretty(self, limit: int = 20) -> str:
        lines = [" | ".join(self._columns)]
        for row in self._rows[:limit]:
            cells = [str(v) for v in row.values]
            if row.oid is not None:
                cells.insert(0, f"<{row.oid}>")
            lines.append(" | ".join(cells))
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        for warning in self._warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"ResultSet({self._columns!r}, {len(self._rows)} rows)")


class QueryStream:
    """Incremental query results: an iterator of :class:`ResultRow`\\ s
    plus the metadata a consumer streams out alongside them (columns,
    warnings, stats).  Created by :func:`repro.lyric.stream`; the
    serving layer pumps one of these per request, shipping rows as
    frames between guard checkpoints.

    Every pull re-activates the stream's context: generators resume in
    the *caller's* contextvar scope, so without this the engine's
    late-bound closures (parameter slots, ``bound_db``, the constraint
    cache) would resolve against whatever context the pumping thread
    happens to have active.

    Exhaustion policy: under ``on_exhaustion="degrade"`` a tripped
    budget ends the stream with a ``partial result: ...`` warning
    instead of raising, keeping the rows produced so far.  The one
    deliberate divergence is :class:`~repro.errors.QueryCancelled`
    while *streaming*: pulled row by row or batch by batch, an explicit
    cancel is a verdict, not a partial answer, and propagates (the
    server turns it into an ``error`` frame with code ``cancelled``).
    :meth:`result` materializes like every other budget: under
    ``degrade`` a cancel ends the answer as a partial one.
    """

    def __init__(self, ctx: "QueryContext", columns: tuple[str, ...],
                 rows: Iterator[ResultRow], engine: str):
        self._ctx = ctx
        self._rows = rows
        self._columns = tuple(columns)
        self._engine = engine
        # The stats account is shared by every context derived from
        # the caller's, so earlier runs' warnings may already be there;
        # this stream reports only what is recorded from here on.
        self._warnings_from = len(ctx.stats.warnings)
        self._own_warnings: list[str] = []
        self._done = False

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    @property
    def engine(self) -> str:
        """Which evaluator produces the rows: ``"translated"`` (the
        Section 5 compile pipeline) or ``"naive"`` (the reference
        evaluator — the fallback outside the translatable fragment)."""
        return self._engine

    @property
    def stats(self) -> "ExecutionStats":
        return self._ctx.stats

    @property
    def exhausted(self) -> bool:
        """True once the stream has yielded its last row (normally or
        by degrading)."""
        return self._done

    @property
    def warnings(self) -> tuple[str, ...]:
        """Warnings so far: those the context's account gained since
        the stream was created (the translated engine degrades
        internally, leaving its warning there) plus the stream's own (a
        budget tripped between pulls under degrade).  Complete only
        once :attr:`exhausted`."""
        return tuple(self._ctx.stats.warnings[self._warnings_from:]) \
            + tuple(self._own_warnings)

    def __iter__(self) -> Iterator[ResultRow]:
        while batch := self._pull(1):
            yield batch[0]

    def next_batch(self, size: int = 64) -> list[ResultRow]:
        """Up to ``size`` more rows; ``[]`` means the stream is done."""
        return self._pull(size)

    def _pull(self, size: int | None) -> list[ResultRow]:
        """Up to ``size`` rows (all of them, materializing, for
        ``None``), pulled under one activation of the stream's
        context."""
        rows: list[ResultRow] = []
        if self._done:
            return rows
        try:
            with self._ctx.activate():
                while size is None or len(rows) < size:
                    rows.append(next(self._rows))
        except StopIteration:
            self._done = True
        except ResourceExhausted as exc:
            self._done = True
            streaming = size is not None
            if not should_degrade(self._ctx.guard) \
                    or (streaming and isinstance(exc, QueryCancelled)):
                raise
            self._own_warnings.append(f"partial result: {exc}")
        return rows

    def result(self) -> ResultSet:
        """Drain the stream and materialize: the one place a query's
        rows and warnings become a :class:`ResultSet`."""
        rows = self._pull(None)
        result = ResultSet(self._columns)
        for warning in self.warnings:
            result.add_warning(warning)
        for row in rows:
            result.add(row)
        return result
