"""Process-backed query execution for the server (GIL escape).

The thread executor in :mod:`repro.server.service` keeps *distinct*
concurrent queries on one interpreter, so solver-bound load gains
nothing from extra cores.  This module is the task the service hands
to :func:`repro.runtime.parallel.dispatch` instead: a whole query, run
in a persistent-pool worker process.

**Shipping strategy.**  The database never pickles per request — the
worker *inherits* it by fork.  :func:`publish` stores
``(db_version, db)`` in this module before the pool exists; every
forked worker therefore carries that exact state.  After a mutation the
service re-publishes and discards the pool
(:func:`~repro.runtime.parallel.shutdown_pool`), so the next dispatch
forks workers that inherit the post-mutation database.  The version
check in :func:`run_query` turns any remaining race into a clean
``{"stale": True}`` reply, which the service converts into a
thread-path fallback — never a wrong answer.

What *does* cross the process boundary per request is small: the query
AST plus what every pool task carries — the context options (parameter
oids among them) and the guard budgets.  Rows come back already
``dump_oid``-serialized in result order, so the service publishes
byte-identical frames to the thread path's.

**Guard.**  The service dispatches with the request's own
``on_exhaustion`` policy (degrade must produce the same partial rows
and warnings it would in-process), and cancellation reaches the worker
through the region's cancel-board slot like any other pool task's.
"""

from __future__ import annotations

from repro import lyric
from repro.model.database import Database
from repro.model.serialize import dump_oid
from repro.runtime.context import current_context
from repro.server import protocol

#: ``(db_version, database)`` the *next* pool fork will inherit.
_PUBLISHED: tuple[int, Database | None] = (-1, None)


def publish(db_version: int, db: Database | None) -> None:
    """Stage the database state future pool workers inherit.  Call
    before the pool forks (service start) and after every mutation
    (paired with a pool shutdown, so stale workers are discarded)."""
    global _PUBLISHED
    _PUBLISHED = (db_version, db)


def run_query(db_version: int, query_ast, translated: bool) -> dict:
    """The pool task: execute one query against the fork-inherited
    database, under the ambient (worker-rebuilt) context, and ship the
    whole result back.

    Returns ``{"stale": True}`` when the inherited database predates
    ``db_version`` (the service falls back to its thread path), else a
    reply dict with ``rows`` (``(values, oid)`` pairs, dump_oid
    serialized, in result order) and ``columns``/``engine``/
    ``partial``/``warnings`` — or ``error_code``/``error_message`` plus
    the rows produced before the error, mirroring what the thread path
    would already have streamed.  Stats and guard spend travel in the
    task outcome, as for every pool task."""
    version, db = _PUBLISHED
    if db is None or version != db_version:
        return {"stale": True}
    ctx = current_context()
    rows: list[tuple] = []
    try:
        stream = lyric.stream(db, query_ast, translated=translated,
                              use_optimizer=ctx.use_optimizer, ctx=ctx)
        batch = stream.next_batch(64)
        while batch:
            rows.extend((
                [dump_oid(v) for v in row.values],
                dump_oid(row.oid) if row.oid is not None else None)
                for row in batch)
            batch = stream.next_batch(64)
        return {
            "rows": rows,
            "columns": list(stream.columns),
            "engine": stream.engine,
            "partial": bool(stream.warnings),
            "warnings": list(stream.warnings),
        }
    except BaseException as exc:  # noqa: BLE001 - process boundary
        return {
            "rows": rows,
            "error_code": protocol.error_code(exc),
            "error_message": str(exc),
        }
