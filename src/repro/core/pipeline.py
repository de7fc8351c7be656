"""The staged compile pipeline: parse → translate → logical plan →
rewrite rules → physical plan → execute.

Compilation is an explicit :class:`Pipeline` of named phases over one
:class:`~repro.runtime.context.QueryContext`:

* **parse** — concrete syntax → AST plus semantic analysis;
* **translate** — AST → the Section 5 flat-relational logical plan;
* **logical-plan** — the database's flat catalog is bound into the
  context (it feeds the cost-based rewrites);
* **rewrite rules** — each enabled
  :class:`~repro.sqlc.optimizer.RewriteRule` runs in order, recorded
  individually as a ``rewrite:<name>`` phase with the plan before and
  after;
* **physical-plan** — the physical rules (index-join and
  sharded-join selection) produce the executable plan;
* **bind** — the database's flat catalog (kept between queries, see
  :func:`repro.model.relations.flatten`) and a context carrying the
  database attach the (database-free) plan to this execution;
* **execute** — :func:`repro.sqlc.engine.execute` evaluates it.

With an active :class:`~repro.runtime.plancache.PlanCache` the whole
compile half is memoized on (raw AST, schema fingerprint, options): a
hit replays none of the phases above parse, recording a single
``plan-cache`` phase instead.

Every phase appends a :class:`~repro.runtime.context.PhaseRecord`
(timing, detail, and plan snapshots where applicable) to the context's
stats, which is what the CLI's ``--analyze`` renders as the per-phase
trace.  Compilation and execution read *all* options (cache, guard,
indexing, shards, optimizer) from the pipeline's context, so two
pipelines over different contexts are fully isolated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, cast

from repro.core import ast
from repro.core.parser import parse_query
from repro.core.result import QueryStream, ResultRow, ResultSet
from repro.core.semantics import AnalyzedQuery, analyze
from repro.model.database import Database
from repro.model.relations import Catalog, flatten
from repro.runtime import context as context_mod
from repro.runtime.context import (
    ExecutionStats,
    PhaseRecord,
    QueryContext,
)
from repro.runtime import plancache as plancache_mod
from repro.sqlc import engine
from repro.sqlc import optimizer as optimizer_mod
from repro.sqlc.algebra import Plan
from repro.sqlc.relation import ConstraintRelation


@dataclass
class CompiledQuery:
    """Product of the compile stages: a *database-free* physical plan.

    Plan nodes reference relations by catalog name and predicate
    closures resolve the database through
    :func:`repro.runtime.context.bound_db`, so a compiled query holds
    no live relations or context — it is exactly the value the plan
    cache shares across executions (and across databases with equal
    schemas).  :meth:`Pipeline.execute` binds it to a database."""

    analysis: AnalyzedQuery
    plan: Plan
    columns: tuple[str, ...]
    oid_column: str | None
    optimized: bool


#: Rows between guard checkpoints while streaming packaged results —
#: the granularity at which a cooperative cancel lands mid-stream.
STREAM_CHECK_EVERY = 64


class Pipeline:
    """The staged compiler/executor for one database and context.

    ``ctx`` defaults to the ambient context with a *fresh* stats
    account (so repeated pipeline runs do not grow the process-default
    account); pass an explicit context to direct the phase trace and
    counters somewhere specific.
    """

    def __init__(self, db: Database,
                 ctx: QueryContext | None = None) -> None:
        self.db = db
        base = context_mod.resolve(ctx)
        self.ctx = base if ctx is not None \
            else base.derive(stats=ExecutionStats())

    # -- phases ----------------------------------------------------------

    def compile(self, query: str | ast.Query) -> CompiledQuery:
        """Run every compile phase; execution is left to :meth:`run`.

        With an active plan cache the raw parsed AST is keyed against
        (schema fingerprint, plan-relevant options) first: a hit
        returns the shared :class:`CompiledQuery` after one guard
        checkpoint, recording a single ``plan-cache`` phase — analysis,
        translation and every rewrite are skipped entirely."""
        from repro.core.translator import translate_analyzed
        stats = self.ctx.stats

        started = time.perf_counter()
        cache = self.ctx.plan_cache
        if not isinstance(query, str):
            query_ast = query
        elif cache is not None:
            # Parsing is pure syntax, so the cache memoizes it too —
            # the repeat-query path skips the tokenizer as well.
            query_ast = cache.ast_for(query, parse_query)
        else:
            query_ast = parse_query(query)

        key = None
        if cache is not None:
            invalidated_before = cache.invalidations
            fingerprint = cache.note_schema(self.db.schema)
            stats.plan_cache_invalidations += \
                cache.invalidations - invalidated_before
            key = plancache_mod.plan_key(query_ast, fingerprint,
                                         self.ctx)
            hit, compiled, saved = cache.lookup(key)
            if hit:
                stats.plan_cache_hits += 1
                stats.plan_compile_saved += saved
                stats.phases.append(PhaseRecord(
                    "plan-cache", time.perf_counter() - started,
                    detail=f"hit; skipped compile "
                           f"({saved * 1000:.3f} ms saved)"))
                if self.ctx.guard is not None:
                    self.ctx.guard.checkpoint("plan-cache")
                return cast(CompiledQuery, compiled)
            stats.plan_cache_misses += 1

        compile_started = time.perf_counter()
        analysis = analyze(self.db.schema, query_ast)
        stats.phases.append(PhaseRecord(
            "parse", time.perf_counter() - started,
            detail=f"{len(analysis.query.from_items)} FROM items, "
                   f"{len(analysis.query.select)} SELECT items"))

        started = time.perf_counter()
        translated = translate_analyzed(self.db, analysis)
        stats.phases.append(PhaseRecord(
            "translate", time.perf_counter() - started,
            detail=f"{len(translated.columns)} columns",
            plan_after=translated.plan.explain()))

        started = time.perf_counter()
        # The catalog feeds the cost-based rewrites only (row-count
        # estimates, shard layout); execution binds its own, so stale
        # sizes can cost performance but never correctness.
        catalog = flatten(self.db, self.ctx.shards, stats)
        exec_ctx = self.ctx.derive(catalog=catalog)
        total_rows = sum(len(r) for r in catalog.values())
        stats.phases.append(PhaseRecord(
            "logical-plan", time.perf_counter() - started,
            detail=f"catalog: {len(catalog)} relations, "
                   f"{total_rows} rows",
            plan_after=translated.plan.explain()))

        plan = translated.plan
        if exec_ctx.use_optimizer:
            plan = optimizer_mod.apply_rules(
                plan, exec_ctx, optimizer_mod.LOGICAL_RULES,
                record=True)
            started = time.perf_counter()
            plan = optimizer_mod.apply_rules(
                plan, exec_ctx, optimizer_mod.PHYSICAL_RULES,
                record=True)
            stats.phases.append(PhaseRecord(
                "physical-plan", time.perf_counter() - started,
                detail="index-join selection",
                plan_after=plan.explain()))

        compiled = CompiledQuery(
            analysis=analysis, plan=plan,
            columns=translated.columns,
            oid_column=translated.oid_column,
            optimized=exec_ctx.use_optimizer)
        if cache is not None:
            cache.store(key, compiled,
                        time.perf_counter() - compile_started)
        return compiled

    def execute(self, compiled: CompiledQuery) -> ConstraintRelation:
        """Bind the database and evaluate an already-rewritten plan.

        The bind step is what replaces compile-time capture: the
        database's flat catalog plus a context carrying ``db`` (for
        the plan's late-bound closures), recorded as its own phase."""
        catalog, exec_ctx = self.bind()
        stats = self.ctx.stats
        started = time.perf_counter()
        relation = engine.execute(
            compiled.plan, catalog,
            use_optimizer=False,  # the rewrite phases already ran
            ctx=exec_ctx)
        stats.phases.append(PhaseRecord(
            "execute", time.perf_counter() - started,
            detail=f"{len(relation)} rows"))
        stats.optimized = compiled.optimized
        return relation

    def bind(self) -> tuple[Catalog, QueryContext]:
        """The catalog of the database as it is now, and the context
        that carries both; records the ``bind`` phase, with the
        query's whole catalog account (compile looks it up too)."""
        stats = self.ctx.stats
        started = time.perf_counter()
        catalog = flatten(self.db, self.ctx.shards, stats)
        exec_ctx = self.ctx.derive(catalog=catalog, db=self.db)
        detail = (f"catalog: {len(catalog)} relations, "
                  f"{stats.catalog_hits} hits, "
                  f"{stats.catalog_rebuilds} rebuilds")
        if stats.catalog_rebuild_reason is not None:
            detail += f" ({stats.catalog_rebuild_reason})"
        stats.phases.append(PhaseRecord(
            "bind", time.perf_counter() - started, detail=detail))
        return catalog, exec_ctx

    def run(self, query: str | ast.Query) -> ResultSet:
        """All phases end to end: :meth:`compile`, then
        :meth:`stream_compiled` materialised by
        :meth:`QueryStream.result` into a :class:`ResultSet` comparable
        with the naive evaluator's."""
        compiled = self.compile(query)
        return QueryStream(self.ctx, compiled.columns,
                           self.stream_compiled(compiled),
                           "translated").result()

    def stream_compiled(self, compiled: CompiledQuery
                        ) -> "Iterator[ResultRow]":
        """Execute a compiled (possibly cache-shared) query against
        this pipeline's database: a generator of packaged result rows
        (deduplicated, in relation order).

        The flat engine evaluates bottom-up, so the *plan* still runs
        to completion on the first pull — cancellation during the
        solver-bound phase fires at the guard checkpoints inside plan
        evaluation — but row packaging (the per-row oid materialization
        the serving layer streams out) is lazy, with a guard checkpoint
        every :data:`STREAM_CHECK_EVERY` rows so a cooperative cancel
        issued mid-stream lands between batches.  Degrade policy is the
        caller's: under ``on_exhaustion="degrade"`` the engine already
        yields an empty relation plus a warning in the context's stats,
        which the caller surfaces (:class:`QueryStream` reports it)."""
        relation = self.execute(compiled)
        guard = self.ctx.guard
        seen: set[tuple] = set()
        for row in relation:
            mapping = relation.row_dict(row)
            values = tuple(mapping[c] for c in compiled.columns)
            oid = mapping.get(compiled.oid_column) \
                if compiled.oid_column else None
            if (values, oid) in seen:
                continue
            if guard is not None and seen \
                    and len(seen) % STREAM_CHECK_EVERY == 0:
                guard.checkpoint("stream")
            seen.add((values, oid))
            yield ResultRow(values, oid)


def render_trace(stats: ExecutionStats) -> str:
    """The per-phase timing trace (one line per recorded phase), as
    printed by ``--explain --analyze``."""
    lines = ["phase trace:"]
    for record in stats.phases:
        line = f"  {record.name:<32} {record.seconds * 1000:9.3f} ms"
        if record.detail:
            line += f"  {record.detail}"
        lines.append(line)
    if len(lines) == 1:
        lines.append("  (no phases recorded)")
    return "\n".join(lines)
