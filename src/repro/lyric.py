"""Top-level facade: the one-import API for LyriC users.

    from repro import lyric
    from repro.model.office import build_office_database

    db, oids = build_office_database()
    result = lyric.query(db, '''
        SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
        FROM Office_Object CO
        WHERE CO.extent[E] and CO.translation[D]
    ''')
    print(result.pretty())

Every entry point accepts an optional
:class:`~repro.runtime.QueryContext` carrying the execution state
(guard, cache, stats, indexing/parallelism options); the ``guard``
parameters remain as conveniences that derive a context on the fly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from typing import Iterator

from repro.core import ast
from repro.core.evaluator import evaluate
from repro.core.lexer import tokenize
from repro.core.parser import parse, parse_query, parse_view
from repro.core.result import ResultRow, ResultSet
from repro.core.translator import TranslationError, run_translated
from repro.core.views import ViewResult, create_view
from repro.errors import (
    LyricSyntaxError,
    QueryCancelled,
    ResourceExhausted,
)
from repro.model.database import Database
from repro.model.oid import LiteralOid, Oid, SymbolicOid, as_oid
from repro.runtime import ExecutionGuard, QueryContext
from repro.runtime import context as context_mod
from repro.runtime.context import ExecutionStats
from repro.runtime.guard import should_degrade


def _call_context(guard: ExecutionGuard | None,
                  ctx: QueryContext | None,
                  **overrides) -> QueryContext:
    """The context a facade call should run under: the explicit ``ctx``
    (or the ambient one), with ``guard`` derived in when given.  Calls
    with neither get a fresh stats account so repeated facade calls do
    not grow the process default's."""
    base = context_mod.resolve(ctx)
    if guard is not None:
        overrides["guard"] = guard
    if ctx is None and "stats" not in overrides:
        overrides["stats"] = ExecutionStats()
    return base.derive(**overrides) if overrides else base


def _coerce_params(params: Mapping[str, object] | None
                   ) -> dict[str, Oid] | None:
    """Parameter bindings with plain Python values coerced to oids
    (ints/floats/strings become literal oids, CST objects become CST
    oids; oids pass through)."""
    if params is None:
        return None
    return {name: as_oid(value) for name, value in params.items()}


def query(db: Database, text: str | ast.Query,
          guard: ExecutionGuard | None = None,
          ctx: QueryContext | None = None,
          params: Mapping[str, object] | None = None) -> ResultSet:
    """Evaluate a LyriC query with the naive object-level evaluator.

    An optional :class:`~repro.runtime.ExecutionGuard` bounds the
    execution (deadline, pivot/branch/disjunct/canonicalisation
    budgets, cancellation); with ``on_exhaustion="degrade"`` the result
    is partial-with-warnings instead of an error.  ``ctx`` supplies the
    full execution state (cache, stats, options) explicitly.
    ``params`` binds the query's ``$name`` placeholders.
    """
    overrides = {}
    if params is not None:
        overrides["params"] = _coerce_params(params)
    return evaluate(db, text, ctx=_call_context(guard, ctx, **overrides))


def query_translated(db: Database, text: str | ast.Query,
                     use_optimizer: bool = True,
                     guard: ExecutionGuard | None = None,
                     ctx: QueryContext | None = None,
                     params: Mapping[str, object] | None = None
                     ) -> ResultSet:
    """Evaluate via the Section 5 translation to flat SQL with
    constraints (the second, independent evaluation path), through the
    staged compile pipeline."""
    overrides = {}
    if params is not None:
        overrides["params"] = _coerce_params(params)
    return run_translated(db, text, use_optimizer=use_optimizer,
                          ctx=_call_context(guard, ctx, **overrides))


def view(db: Database, text: str | ast.CreateView,
         guard: ExecutionGuard | None = None,
         ctx: QueryContext | None = None) -> ViewResult:
    """Execute a CREATE VIEW statement, materializing new classes."""
    return create_view(db, text, ctx=_call_context(guard, ctx))


def explain(db: Database, text: str | ast.Query,
            use_optimizer: bool = True, analyze: bool = False,
            ctx: QueryContext | None = None) -> str:
    """The flat-relational plan the Section 5 translation produces for
    a query, rendered as a tree (after optimization by default).

    With ``analyze`` the plan is executed and each node is annotated
    with its actual output row count; the compile pipeline's per-phase
    trace lands in the context's stats (``ctx.stats.phases``)."""
    import time

    from repro.core.pipeline import Pipeline
    from repro.runtime.context import PhaseRecord
    from repro.sqlc.engine import explain_analyze

    call_ctx = _call_context(None, ctx, use_optimizer=use_optimizer)
    pipeline = Pipeline(db, call_ctx)
    compiled = pipeline.compile(text)
    if not analyze:
        return compiled.plan.explain()
    catalog, exec_ctx = pipeline.bind()
    started = time.perf_counter()
    rendered = explain_analyze(compiled.plan, catalog,
                               use_optimizer=False, ctx=exec_ctx)
    call_ctx.stats.phases.append(PhaseRecord(
        "execute", time.perf_counter() - started,
        detail="explain analyze (per-node evaluation)"))
    return rendered


def warnings_for(db: Database, text: str | ast.Query) -> list[str]:
    """Static diagnostics for a query (e.g. paths that are empty by
    typing — XSQL's "type error" case)."""
    from repro.core.parser import parse_query
    from repro.core.semantics import analyze as analyze_query
    query = parse_query(text) if isinstance(text, str) else text
    return list(analyze_query(db.schema, query).warnings)


class QueryStream:
    """Incremental query results: an iterator of
    :class:`~repro.core.result.ResultRow`\\ s plus the metadata a
    consumer streams out alongside them (columns, warnings, stats).
    Created by :func:`stream`; the serving layer pumps one of these per
    request, shipping rows as frames between guard checkpoints.

    Every pull re-activates the stream's context: generators resume in
    the *caller's* contextvar scope, so without this the engine's
    late-bound closures (parameter slots, ``bound_db``, the constraint
    cache) would resolve against whatever context the pumping thread
    happens to have active.

    Exhaustion policy matches the materializing entry points: under
    ``on_exhaustion="degrade"`` a tripped budget ends the stream with a
    ``partial result: ...`` warning instead of raising.  The one
    deliberate divergence is :class:`~repro.errors.QueryCancelled`,
    which always propagates — an explicit cancel is a verdict, not a
    partial answer (the server turns it into an ``error`` frame with
    code ``cancelled``).
    """

    def __init__(self, ctx: QueryContext, columns: tuple[str, ...],
                 rows: Iterator[ResultRow], engine: str):
        self._ctx = ctx
        self._rows = rows
        self._columns = tuple(columns)
        self._engine = engine
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
    def ctx(self) -> QueryContext:
        return self._ctx

    @property
    def stats(self) -> ExecutionStats:
        return self._ctx.stats

    @property
    def exhausted(self) -> bool:
        """True once the stream has yielded its last row (normally or
        by degrading)."""
        return self._done

    @property
    def warnings(self) -> tuple[str, ...]:
        """Warnings so far: the context account's (the translated
        engine degrades internally, leaving its warning there) plus the
        stream's own (a budget tripped between pulls under degrade).
        Complete only once :attr:`exhausted`."""
        return tuple(self._ctx.stats.warnings) \
            + tuple(self._own_warnings)

    def __iter__(self) -> Iterator[ResultRow]:
        while True:
            row = self._pull()
            if row is None:
                return
            yield row

    def next_batch(self, size: int = 64) -> list[ResultRow]:
        """Up to ``size`` more rows; ``[]`` means the stream is done."""
        batch: list[ResultRow] = []
        while len(batch) < size:
            row = self._pull()
            if row is None:
                break
            batch.append(row)
        return batch

    def _pull(self) -> ResultRow | None:
        if self._done:
            return None
        try:
            with self._ctx.activate():
                return next(self._rows)
        except StopIteration:
            self._done = True
            return None
        except QueryCancelled:
            self._done = True
            raise
        except ResourceExhausted as exc:
            self._done = True
            if not should_degrade(self._ctx.guard):
                raise
            self._own_warnings.append(f"partial result: {exc}")
            return None

    def result(self) -> ResultSet:
        """Drain the stream and materialize — identical to what the
        equivalent :func:`query`/:func:`query_translated` call
        returns."""
        rows = list(self)
        result = ResultSet(self._columns)
        for warning in self.warnings:
            result.add_warning(warning)
        for row in rows:
            result.add(row)
        return result


def stream(db: Database, text: str | ast.Query,
           translated: bool = True,
           use_optimizer: bool = True,
           guard: ExecutionGuard | None = None,
           ctx: QueryContext | None = None,
           params: Mapping[str, object] | None = None) -> QueryStream:
    """Evaluate a query incrementally, returning a
    :class:`QueryStream` of rows instead of a materialized
    :class:`~repro.core.result.ResultSet`.

    Compilation (parse, analysis, and — when ``translated`` — the plan
    pipeline) runs eagerly, so syntax and translation problems surface
    here; execution is deferred to the first pull.  ``translated``
    queries outside the translatable fragment fall back to the naive
    evaluator, as does any run under fault injection (a cached plan
    would shift the fault schedule's compile-phase ticks);
    :attr:`QueryStream.engine` reports which path was taken.
    """
    overrides: dict = {}
    if params is not None:
        overrides["params"] = _coerce_params(params)
    if translated:
        overrides["use_optimizer"] = use_optimizer
    call_ctx = _call_context(guard, ctx, **overrides)
    query_ast = parse_query(text) if isinstance(text, str) else text
    if translated and call_ctx.faults is None:
        from repro.core.pipeline import Pipeline
        pipeline = Pipeline(db, call_ctx)
        try:
            compiled = pipeline.compile(query_ast)
        except TranslationError:
            compiled = None
        if compiled is not None:
            return QueryStream(call_ctx, compiled.columns,
                               pipeline.stream_compiled(compiled),
                               "translated")
    from repro.core import evaluator as evaluator_mod
    from repro.core.semantics import analyze as analyze_query
    analysis = analyze_query(db.schema, query_ast)
    rows = evaluator_mod.stream_analyzed(db, analysis, ctx=call_ctx)
    columns = evaluator_mod._column_names(analysis.query)
    return QueryStream(call_ctx, columns, rows, "naive")


class PreparedQuery:
    """A query parsed and analyzed once, reusable across executions —
    the PREPARE half of PREPARE/EXECUTE.

    Binding is by schema *content*, not object identity: the schema
    fingerprint recorded at prepare time must equal the target
    database's, so a database restored via
    :class:`~repro.storage.store.Store` runs plans prepared against the
    original, while any DDL mutation correctly invalidates them.

    Each run is a :func:`stream` of the prepared AST: the compiled plan
    comes from the context's plan cache (a second run is a cache hit)
    and the engine is chosen by the one rule :func:`stream` states.
    """

    def __init__(self, schema, text: str | ast.Query):
        from repro.core.parser import parse_query
        from repro.core.semantics import analyze as analyze_query
        query_ast = parse_query(text) if isinstance(text, str) else text
        self._schema = schema
        self._fingerprint = schema.fingerprint()
        self._query_ast = query_ast
        self._analysis = analyze_query(schema, query_ast)

    @property
    def warnings(self) -> list[str]:
        return list(self._analysis.warnings)

    @property
    def query(self) -> ast.Query:
        return self._analysis.query

    @property
    def params(self) -> tuple[str, ...]:
        """Parameter slots in positional (first-occurrence) order."""
        return self._analysis.params

    def run(self, db: Database,
            ctx: QueryContext | None = None,
            params: Mapping[str, object] | None = None) -> ResultSet:
        if db.schema.fingerprint() != self._fingerprint:
            raise ValueError(
                "prepared query bound to a different schema")
        overrides = {}
        if params is not None:
            overrides["params"] = _coerce_params(params)
        call_ctx = _call_context(None, ctx, **overrides)
        bound = call_ctx.params or {}
        missing = [p for p in self._analysis.params if p not in bound]
        if missing:
            from repro.errors import EvaluationError
            raise EvaluationError(
                "unbound parameters: "
                + ", ".join(f"${p}" for p in missing))
        return stream(db, self._query_ast,
                      use_optimizer=call_ctx.use_optimizer,
                      ctx=call_ctx).result()


def prepare(db: Database, text: str | ast.Query) -> PreparedQuery:
    """Parse and analyze once; execute many times with
    ``.run(db, params=...)``."""
    return PreparedQuery(db.schema, text)


#: ``PREPARE name AS query`` and ``EXECUTE name [(arguments)]``: the
#: statement forms of the shell and of the server's line dialect.
PREPARE_STATEMENT = re.compile(
    r"^prepare\s+([A-Za-z_]\w*)\s+as\s+(.+)$",
    re.IGNORECASE | re.DOTALL)
EXECUTE_STATEMENT = re.compile(
    r"^execute\s+([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*$",
    re.IGNORECASE | re.DOTALL)


def execute_bindings(args_text: str | None,
                     param_names: tuple[str, ...]) -> dict[str, Oid]:
    """EXECUTE argument list -> parameter bindings.

    Arguments are positional (mapped onto the prepared query's
    parameter order) or named (``p = 3`` / ``$p = 3``); values are
    numbers, quoted strings, or bare identifiers (symbolic oids).
    """
    bindings: dict[str, Oid] = {}
    positional: list = []
    if args_text and args_text.strip():
        tokens = tokenize(args_text)
        i = 0

        def value_at(i: int):
            token = tokens[i]
            if token.kind == "number":
                return LiteralOid(Fraction(token.value)), i + 1
            if token.kind == "symbol" and token.value == "-" \
                    and tokens[i + 1].kind == "number":
                return LiteralOid(-Fraction(tokens[i + 1].value)), i + 2
            if token.kind == "string":
                return LiteralOid(token.value), i + 1
            if token.kind in ("ident", "kw"):
                return SymbolicOid(token.value), i + 1
            raise LyricSyntaxError(
                f"EXECUTE argument: unexpected {token.value or token.kind!r}")

        while tokens[i].kind != "eof":
            token = tokens[i]
            if token.kind in ("ident", "param") \
                    and tokens[i + 1].kind == "symbol" \
                    and tokens[i + 1].value == "=":
                value, i = value_at(i + 2)
                bindings[token.value] = value
            else:
                value, i = value_at(i)
                positional.append(value)
            if tokens[i].kind == "symbol" and tokens[i].value == ",":
                i += 1
            elif tokens[i].kind != "eof":
                raise LyricSyntaxError(
                    "EXECUTE arguments must be comma-separated")
    if len(positional) > len(param_names):
        raise LyricSyntaxError(
            f"EXECUTE: {len(positional)} positional arguments for "
            f"{len(param_names)} parameters")
    for name, value in zip(param_names, positional):
        bindings.setdefault(name, value)
    unknown = set(bindings) - set(param_names)
    if unknown:
        raise LyricSyntaxError(
            "EXECUTE: unknown parameters "
            + ", ".join(f"${n}" for n in sorted(unknown)))
    return bindings


__all__ = [
    "Database",
    "ExecutionGuard",
    "QueryContext",
    "ResultSet",
    "ViewResult",
    "create_view",
    "evaluate",
    "explain",
    "prepare",
    "PreparedQuery",
    "PREPARE_STATEMENT",
    "EXECUTE_STATEMENT",
    "execute_bindings",
    "parse",
    "parse_query",
    "parse_view",
    "query",
    "query_translated",
    "stream",
    "QueryStream",
    "view",
]
