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
(guard, cache, stats, indexing/sharding options); the ``guard``
parameters remain as conveniences that derive a context on the fly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from repro.core import ast
from repro.core.evaluator import _column_names, evaluate, stream_analyzed
from repro.core.lexer import tokenize
from repro.core.parser import parse, parse_query, parse_view
from repro.core.pipeline import Pipeline
from repro.core.result import QueryStream, ResultSet
from repro.core.semantics import analyze as analyze_query
from repro.core.translator import TranslationError
from repro.core.views import ViewResult, create_view
from repro.errors import EvaluationError, LyricSyntaxError
from repro.model.database import Database
from repro.model.oid import LiteralOid, Oid, SymbolicOid, as_oid
from repro.runtime import ExecutionGuard, QueryContext
from repro.runtime import context as context_mod
from repro.runtime.context import ExecutionStats


def _call_context(guard: ExecutionGuard | None,
                  ctx: QueryContext | None,
                  **overrides) -> QueryContext:
    """The context a facade call should run under: the explicit ``ctx``
    (or the ambient one), with ``guard`` and each override derived in
    when given — ``None`` keeps the context's value.  Calls with
    neither get a fresh stats account so repeated facade calls do not
    grow the process default's."""
    base = context_mod.resolve(ctx)
    overrides = {name: value for name, value
                 in dict(overrides, guard=guard).items()
                 if value is not None}
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
    """Evaluate a LyriC query with the naive object-level evaluator —
    the reference engine; :func:`stream` is the rule that prefers the
    translation.

    An optional :class:`~repro.runtime.ExecutionGuard` bounds the
    execution (deadline, pivot/branch/disjunct/canonicalisation
    budgets, cancellation); with ``on_exhaustion="degrade"`` the result
    is partial-with-warnings instead of an error.  ``ctx`` supplies the
    full execution state (cache, stats, options) explicitly.
    ``params`` binds the query's ``$name`` placeholders.
    """
    return evaluate(db, text, ctx=_call_context(
        guard, ctx, params=_coerce_params(params)))


def query_translated(db: Database, text: str | ast.Query,
                     use_optimizer: bool | None = None,
                     guard: ExecutionGuard | None = None,
                     ctx: QueryContext | None = None,
                     params: Mapping[str, object] | None = None
                     ) -> ResultSet:
    """Evaluate via the Section 5 translation to flat SQL with
    constraints (the second, independent evaluation path), through the
    staged compile pipeline; raises
    :class:`~repro.core.translator.TranslationError` outside the
    translatable fragment.  ``use_optimizer`` (``None``: the context's)
    selects the plan rewrites."""
    return Pipeline(db, _call_context(
        guard, ctx, use_optimizer=use_optimizer,
        params=_coerce_params(params))).run(text)


def view(db: Database, text: str | ast.CreateView,
         guard: ExecutionGuard | None = None,
         ctx: QueryContext | None = None) -> ViewResult:
    """Execute a CREATE VIEW statement, materializing new classes."""
    return create_view(db, text, ctx=_call_context(guard, ctx))


def explain(db: Database, text: str | ast.Query,
            use_optimizer: bool | None = None, analyze: bool = False,
            ctx: QueryContext | None = None) -> str:
    """The flat-relational plan the Section 5 translation produces for
    a query, rendered as a tree (after the context's optimizer
    setting unless ``use_optimizer`` is given; on by default).

    With ``analyze`` the plan is executed and each node is annotated
    with its actual output row count; the compile pipeline's per-phase
    trace lands in the context's stats (``ctx.stats.phases``)."""
    import time

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
    query = parse_query(text) if isinstance(text, str) else text
    return list(analyze_query(db.schema, query).warnings)


def stream(db: Database, text: str | ast.Query,
           translated: bool = True,
           use_optimizer: bool | None = None,
           guard: ExecutionGuard | None = None,
           ctx: QueryContext | None = None,
           params: Mapping[str, object] | None = None) -> QueryStream:
    """Evaluate a query incrementally, returning a
    :class:`~repro.core.result.QueryStream` of rows;
    ``stream(...).result()`` materializes them.

    This is the engine rule every front end runs — ``repro query``,
    plain shell statements, ``EXECUTE``, :class:`PreparedQuery` and the
    server: the Section 5 translation, except that queries outside the
    translatable fragment fall back to the naive evaluator, as does any
    ``translated=False`` call.  A guard's
    :class:`~repro.runtime.faults.FaultPlan` changes nothing here: it
    injects its faults into whichever engine the rule picks, with the
    caches, prefilter, index and kernel the context sets.
    :attr:`QueryStream.engine` reports which path was taken, and the
    context's stats book each fallback with its reason
    (``engine_fallbacks`` / ``engine_fallback_reason``).

    Compilation (parse, analysis, and — when translated — the plan
    pipeline) runs eagerly, so syntax and semantic problems surface
    here; execution is deferred to the first pull.
    """
    call_ctx = _call_context(
        guard, ctx, params=_coerce_params(params),
        use_optimizer=use_optimizer if translated else None)
    query_ast = parse_query(text) if isinstance(text, str) else text
    if not translated:
        reason = "translated=False"
    else:
        pipeline = Pipeline(db, call_ctx)
        try:
            compiled = pipeline.compile(query_ast)
        except TranslationError as exc:
            reason = str(exc)
        else:
            return QueryStream(call_ctx, compiled.columns,
                               pipeline.stream_compiled(compiled),
                               "translated")
    analysis = analyze_query(db.schema, query_ast)
    call_ctx.stats.engine_fallbacks += 1
    call_ctx.stats.engine_fallback_reason = reason
    return QueryStream(call_ctx, _column_names(analysis.query),
                       stream_analyzed(db, analysis, ctx=call_ctx),
                       "naive")


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

    Server sessions keep these too.  Their EXECUTE submits
    :attr:`query` to the service, whose compile analyses it again
    against the served database, so the server makes no fingerprint
    check; :meth:`require_bound` is the check both share.
    """

    def __init__(self, schema, text: str | ast.Query):
        query_ast = parse_query(text) if isinstance(text, str) else text
        self._fingerprint = schema.fingerprint()
        self._query_ast = query_ast
        self._analysis = analyze_query(schema, query_ast)

    @property
    def warnings(self) -> list[str]:
        return list(self._analysis.warnings)

    @property
    def query(self) -> ast.Query:
        """The parsed query every run streams (what the plan cache and
        the server's dedup key on)."""
        return self._query_ast

    @property
    def params(self) -> tuple[str, ...]:
        """Parameter slots in positional (first-occurrence) order."""
        return self._analysis.params

    def require_bound(self, bindings: Mapping[str, object] | None
                      ) -> None:
        """Raise :class:`~repro.errors.EvaluationError` naming every
        parameter slot ``bindings`` leaves unbound."""
        missing = [p for p in self.params if p not in (bindings or {})]
        if missing:
            raise EvaluationError(
                "unbound parameters: "
                + ", ".join(f"${p}" for p in missing))

    def run(self, db: Database,
            ctx: QueryContext | None = None,
            params: Mapping[str, object] | None = None) -> ResultSet:
        if db.schema.fingerprint() != self._fingerprint:
            raise ValueError(
                "prepared query bound to a different schema")
        call_ctx = _call_context(None, ctx, params=_coerce_params(params))
        self.require_bound(call_ctx.params)
        return stream(db, self._query_ast, ctx=call_ctx).result()


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
