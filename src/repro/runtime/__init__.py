"""Resource governance for query execution.

Public surface:

* :class:`QueryContext` — one object owning all per-query execution
  state (guard, cache, stats, options); :func:`current_context`
  resolves the ambient one (see ``docs/API.md``, "Architecture");
* :class:`ExecutionStats` / :class:`PhaseRecord` — the per-execution
  account every layer writes into, and the pipeline's phase trace;
* :class:`ExecutionGuard` — deadlines, work budgets, cancellation;
* :func:`guarded` / :func:`current_guard` — the ambient activation
  protocol used by the engine's hot paths;
* :class:`FaultPlan` — deterministic fault injection for testing every
  degradation path;
* :class:`ConstraintCache` / :func:`caching` / :func:`prefilter` — the
  constraint-level memoization layer and the interval-prefilter gate
  (see ``docs/API.md``, "Performance: caching and prefilters");
* :class:`PlanCache` — the compiled-plan cache keyed on (query AST,
  schema fingerprint, options); see ``docs/API.md``, "Prepared queries
  & the plan cache";
* :func:`parallelism` — the partitioned parallel evaluator's
  worker-count gate (see ``docs/API.md``,
  "Indexing & parallel execution");
* :func:`numeric_available` / :func:`scipy_available` — the single
  import guard in front of the optional ``fast`` extra (numpy/scipy);
  the numeric fast path (see ``docs/API.md``, "Numeric fast path")
  degrades cleanly when the extra is missing.
"""

from repro.runtime.cache import (
    ConstraintCache,
    active_cache,
    caching,
    clear_global_cache,
    get_global_cache,
    memoized,
    prefilter,
    prefilter_active,
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
    active_plan_cache,
    clear_global_plan_cache,
    get_global_plan_cache,
)
from repro.runtime.numeric import (
    numeric_available,
    numeric_mode,
    scipy_available,
)
from repro.runtime.guard import (
    POLICIES,
    ExecutionGuard,
    current_guard,
    guarded,
    should_degrade,
)
from repro.runtime.parallel import (
    filter_rows,
    parallelism,
    should_partition,
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
    "active_cache",
    "active_plan_cache",
    "caching",
    "clear_global_cache",
    "clear_global_plan_cache",
    "get_global_plan_cache",
    "current_context",
    "current_guard",
    "default_context",
    "filter_rows",
    "get_global_cache",
    "guarded",
    "memoized",
    "numeric_available",
    "numeric_mode",
    "parallelism",
    "prefilter",
    "prefilter_active",
    "scipy_available",
    "should_degrade",
    "should_partition",
]
