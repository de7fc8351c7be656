"""Resource governance for query execution.

Public surface:

* :class:`QueryContext` — the one object owning all per-query
  execution state (guard, caches, stats, options) and the only way to
  set any of it: build one (or ``current_context().derive(...)``) and
  ``.activate()`` it; :func:`current_context` resolves the ambient one
  (see ``docs/API.md``, "Architecture");
* :class:`ExecutionStats` / :class:`PhaseRecord` — the per-execution
  account every layer writes into, and the pipeline's phase trace;
* :class:`ExecutionGuard` — deadlines, work budgets, cancellation;
* :class:`FaultPlan` — deterministic fault injection for testing every
  degradation path;
* :class:`ConstraintCache` — the constraint-level memoization layer
  (see ``docs/API.md``, "Performance: caching and prefilters");
* :class:`PlanCache` — the compiled-plan cache keyed on (query AST,
  schema fingerprint, options); see ``docs/API.md``, "Prepared queries
  & the plan cache".

:func:`~repro.runtime.locks.fork_safe_lock` makes the locks of the
process-wide structures that the server's forked pool workers inherit
(the executor itself is :mod:`repro.server.procexec`; see
``docs/API.md``, "Process-parallel execution").

The numeric fast path (``docs/API.md``, "Numeric fast path") is plain
Python and on by default; ``QueryContext(numeric=False)`` turns it off.
"""

from repro.runtime.cache import (
    ConstraintCache,
    clear_global_cache,
    get_global_cache,
)
from repro.runtime.context import (
    ExecutionStats,
    PhaseRecord,
    QueryContext,
    current_context,
    default_context,
)
from repro.runtime.faults import BUDGETS, FaultPlan
from repro.runtime.plancache import (
    PlanCache,
    clear_global_plan_cache,
    get_global_plan_cache,
)
from repro.runtime.guard import (
    POLICIES,
    ExecutionGuard,
    should_degrade,
)

__all__ = [
    "BUDGETS",
    "POLICIES",
    "ConstraintCache",
    "ExecutionGuard",
    "ExecutionStats",
    "FaultPlan",
    "PhaseRecord",
    "PlanCache",
    "QueryContext",
    "clear_global_cache",
    "clear_global_plan_cache",
    "get_global_plan_cache",
    "current_context",
    "default_context",
    "get_global_cache",
    "should_degrade",
]
