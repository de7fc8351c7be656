"""Execution entry point for flat constraint-relation plans.

``execute`` is one phase of the staged pipeline
(:mod:`repro.core.pipeline`): it derives a
:class:`~repro.runtime.context.QueryContext` for the call, activates
it, optionally runs the optimizer's rewrite rules, and evaluates the
plan.  All effectiveness counters (cache, box prefilter, index,
parallel) are written *directly* into the context's
:class:`~repro.runtime.context.ExecutionStats` by the layers doing the
work, and nowhere else — no process-global counter, nothing on the
plan nodes — so two interleaved contexts keep separate accounts, and
:func:`explain_analyze` reads a node's probe counts as the delta of
its own context's account around that node's one evaluation.
"""

from __future__ import annotations

from repro.errors import ResourceExhausted
from repro.runtime import context as context_mod
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.guard import ExecutionGuard, should_degrade
from repro.sqlc import optimizer as optimizer_mod
from repro.sqlc.algebra import Catalog, IndexJoin, Materialized, Plan
from repro.sqlc.relation import ConstraintRelation

__all__ = ["ExecutionStats", "execute", "explain_analyze"]


def execute(plan: Plan, catalog: Catalog,
            use_optimizer: bool | None = None,
            stats: ExecutionStats | None = None,
            guard: ExecutionGuard | None = None,
            ctx: QueryContext | None = None) -> ConstraintRelation:
    """Evaluate ``plan`` against ``catalog``.

    With ``use_optimizer`` (defaulting to the context's
    ``use_optimizer`` option, itself ``True`` by default) the plan is
    rewritten by the optimizer's rule list first; this is the knob the
    E8 benchmark flips.

    State comes from ``ctx`` (or the ambient context), with ``stats``
    and ``guard`` as per-call overrides; the derived context is active
    for the duration of the call.  Plans are database-free, so a
    caller executing a cached plan passes a context carrying ``db``
    (the pipeline's bind step does) for the plan's late-bound closures
    to resolve.  When the guard's policy is
    ``"degrade"``, budget exhaustion yields an **empty relation with
    the plan's columns** plus a warning in the stats instead of an
    exception — the flat engine evaluates bottom-up, so there is no
    meaningful row prefix to salvage the way the naive evaluator can.
    """
    base = context_mod.resolve(ctx)
    overrides: dict[str, object] = {"catalog": catalog}
    if guard is not None:
        overrides["guard"] = guard
    if stats is not None:
        stats.reset()
        overrides["stats"] = stats
    exec_ctx = base.derive(**overrides)
    # Engine-assigned summary fields are only written when the caller
    # asked for an account (explicit stats or explicit ctx) — pure
    # ambient calls must not grow the default context's warning list.
    record = stats is not None or ctx is not None
    acct = exec_ctx.stats
    with exec_ctx.activate():
        active = exec_ctx.guard
        opt = use_optimizer if use_optimizer is not None \
            else exec_ctx.use_optimizer
        guard_before = active.spend() \
            if active is not None and record else None
        try:
            if opt:
                plan = optimizer_mod.apply_rules(plan, exec_ctx)
            result = plan.evaluate(catalog, exec_ctx)
        except ResourceExhausted as exc:
            if not should_degrade(active):
                raise
            result = ConstraintRelation("degraded", plan.columns)
            if record:
                acct.exhausted = exc.budget
                acct.warnings.append(f"partial result: {exc}")
        if record:
            acct.optimized = opt
            acct.input_rows = sum(len(r) for r in catalog.values())
            acct.output_rows = len(result)
            acct.capture_guard(active, guard_before)
    return result


#: The counters behind an index join's ``--analyze`` annotation.
_PROBE_COUNTERS = ("index_probes", "index_candidates", "candidates_pruned",
                   "shard_joins", "shard_pairs_pruned", "shard_pairs_probed")


def explain_analyze(plan: Plan, catalog: Catalog,
                    use_optimizer: bool = True,
                    ctx: QueryContext | None = None) -> str:
    """The plan tree annotated with actual per-node output row counts.

    Each node is evaluated exactly once: children first, then the node
    itself against *materialized* child results — so a node shared or
    deeply nested in the tree no longer re-evaluates its whole subtree
    once per ancestor, and an index join's probe counts are what the
    context's account gained across that one evaluation.
    """
    exec_ctx = context_mod.resolve(ctx).derive(catalog=catalog)
    acct = exec_ctx.stats
    results: dict[int, ConstraintRelation] = {}
    probes: dict[int, dict[str, int]] = {}
    with exec_ctx.activate():
        if use_optimizer:
            plan = optimizer_mod.apply_rules(plan, exec_ctx)

        def measure(node: Plan) -> Plan:
            if id(node) not in results:
                replaced = node.map_children(measure)
                before = [getattr(acct, name) for name in _PROBE_COUNTERS]
                results[id(node)] = replaced.evaluate(catalog, exec_ctx)
                probes[id(node)] = {
                    name: getattr(acct, name) - was
                    for name, was in zip(_PROBE_COUNTERS, before)}
            return Materialized(results[id(node)])

        measure(plan)
    indexed = IndexJoin.probes_index(exec_ctx)

    def render(node: Plan, depth: int) -> str:
        pad = "  " * depth
        line = (f"{pad}{node.describe()}  "
                f"[{len(results[id(node)])} rows]")
        if indexed and isinstance(node, IndexJoin):
            probe = probes[id(node)]
            candidates = probe["index_candidates"]
            pruned = probe["candidates_pruned"]
            line += (f"  [index: probed {probe['index_probes']}, pruned "
                     f"{pruned} of {candidates + pruned} pairs, "
                     f"{candidates} candidates]")
            if probe["shard_joins"]:
                left, right = (results[id(c)] for c in node.children)
                line += (f"  [shards: {left.shard_count}x"
                         f"{right.shard_count}, "
                         f"{probe['shard_pairs_pruned']} shard pairs "
                         f"pruned, {probe['shard_pairs_probed']} "
                         f"probed]")
        for child in node.children:
            line += "\n" + render(child, depth + 1)
        return line

    return render(plan, 0)
