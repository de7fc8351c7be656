"""One server request, and the pool task that runs it elsewhere.

A request is one CPU-bound plan evaluation; the only thing an executor
decides is *where* it runs.  :func:`request_events` is that request —
the only loop in the server that pumps a
:class:`~repro.core.result.QueryStream` — and it yields exactly the events a
job publishes.  The thread executor feeds the live generator to the
event loop; the process executor (the GIL escape: *distinct* concurrent
queries on one interpreter gain nothing from extra cores) hands
:func:`run_query` to :func:`repro.runtime.parallel.dispatch`, and a
persistent-pool worker ships the same events back as a list.  Frames
are therefore byte-identical across executors by construction.

**Shipping strategy.**  The database never pickles per request — the
worker *inherits* it by fork.  :func:`publish` stores
``(db_version, db)`` in this module before the pool exists; every
forked worker therefore carries that exact state.  After a mutation the
service re-publishes and discards the pool
(:func:`~repro.runtime.parallel.shutdown_pool`), so the next dispatch
forks workers that inherit the post-mutation database.  The version
check in :func:`run_query` turns any remaining race into a clean
``None`` reply, and the service runs the generator itself — never a
wrong answer.

What *does* cross the process boundary per request is small: the query
AST plus what every pool task carries — the context options (parameter
oids among them) and the guard budgets.  Rows come back already
``dump_oid``-serialized in result order.

**Guard.**  The worker guard keeps the request's own
``on_exhaustion`` policy (degrade must produce the same partial rows
and warnings it would in-process), a trip under ``fail`` ends the
shipped events with an ``error`` event as it would in-process, and
cancellation reaches the worker through the dispatch's cancel-board
slot.
"""

from __future__ import annotations

from typing import Iterator

from repro import lyric
from repro.model.database import Database
from repro.model.serialize import dump_oid
from repro.runtime.context import QueryContext, current_context
from repro.server import protocol

#: Rows per ``rows`` event — the granularity at which a request hands
#: rows to the event loop (each event becomes that many ``row``
#: frames).
ROW_BATCH = 32

#: ``(db_version, database)`` the *next* pool fork will inherit.
_PUBLISHED: tuple[int, Database | None] = (-1, None)


def publish(db_version: int, db: Database | None) -> None:
    """Stage the database state future pool workers inherit.  Call
    before the pool forks (service start) and after every mutation
    (paired with a pool shutdown, so stale workers are discarded)."""
    global _PUBLISHED
    _PUBLISHED = (db_version, db)


def request_events(db: Database, query_ast, translated: bool,
                   ctx: QueryContext) -> Iterator[tuple]:
    """One request, as the events its job publishes: ``("rows",
    [(values, oid), ...])`` per :data:`ROW_BATCH` rows (``dump_oid``
    serialized, in result order), ``("warning", text)`` per warning,
    then the terminal — ``("done", body)``, or ``("error", code,
    message)`` with the rows produced before the error already
    yielded.  The account is ``ctx``'s (guard, stats); the caller
    reports it."""
    rows = 0
    try:
        stream = lyric.stream(db, query_ast, translated=translated,
                              use_optimizer=ctx.use_optimizer, ctx=ctx)
        while batch := stream.next_batch(ROW_BATCH):
            rows += len(batch)
            yield ("rows", [
                ([dump_oid(v) for v in row.values],
                 dump_oid(row.oid) if row.oid is not None else None)
                for row in batch])
        for warning in stream.warnings:
            yield ("warning", warning)
        yield ("done", {
            "columns": list(stream.columns),
            "engine": stream.engine,
            "rows": rows,
            "partial": bool(stream.warnings),
        })
    except Exception as exc:  # noqa: BLE001 - wire / process boundary
        yield ("error", protocol.error_code(exc), str(exc))


def run_query(db_version: int, query_ast,
              translated: bool) -> list[tuple] | None:
    """The pool task: :func:`request_events` against the fork-inherited
    database, under the ambient (worker-rebuilt) context, shipped back
    whole — or ``None`` when the inherited database predates
    ``db_version`` (the service then runs the request itself).  Stats
    and guard spend travel in the task outcome, as for every pool
    task."""
    version, db = _PUBLISHED
    if db is None or version != db_version:
        return None
    return list(request_events(db, query_ast, translated,
                               current_context()))
