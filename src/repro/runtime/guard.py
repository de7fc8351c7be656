"""Execution guards: deadlines, work budgets, cooperative cancellation.

The paper's closure results bound *representation* sizes, but several
runtime quantities of this reproduction are unbounded in practice:
disequality branching is exponential in query size, disjunct counts
multiply under conjunction, and the exact simplex can pivot arbitrarily
long on adversarial coefficients.  An :class:`ExecutionGuard` bounds a
query execution along every one of those axes:

``deadline``
    wall-clock seconds for the whole execution;
``max_pivots``
    total exact-simplex pivots;
``max_branches``
    disequality branches explored by the satisfiability procedure;
``max_disjuncts``
    size any single disjunction may reach;
``max_canonical``
    canonicalisation work units (one unit ≈ one redundancy/entailment
    LP check);
cooperative cancellation
    :meth:`ExecutionGuard.cancel` may be called from any thread; the
    next checkpoint raises :class:`~repro.errors.QueryCancelled`.

The guard travels inside the active
:class:`~repro.runtime.context.QueryContext`; engine layers receive it
explicitly through a ``ctx`` parameter (or read
``current_context().guard``).  When no guard is active every checkpoint
sees ``None`` — the unguarded fast path does no counting, no clock
reads, and no exception handling.

Exceeding a budget raises a subclass of
:class:`~repro.errors.ResourceExhausted` carrying structured
diagnostics (which budget, the limit, the spend, which component).
Callers that prefer partial answers over failures construct the guard
with ``on_exhaustion="degrade"``; the query evaluator and the flat
engine then catch the exception at their result boundary and return
what they had, with a warning.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import (
    BranchBudgetExceeded,
    CanonicalizationBudgetExceeded,
    DeadlineExceeded,
    DisjunctBudgetExceeded,
    InjectedFaultError,
    PivotBudgetExceeded,
    QueryCancelled,
)
from repro.runtime.faults import FaultPlan

#: Exhaustion policies: fail the query, or return a partial result
#: with a warning at the evaluator / engine boundary.
POLICIES = ("fail", "degrade")


class ExecutionGuard:
    """Budgets, spend counters, and cancellation for one execution.

    A guard may be reused across executions (counters are cumulative),
    but is not thread-safe for *spending* — activate one guard per
    worker.  :meth:`cancel` is the one cross-thread entry point.
    """

    __slots__ = (
        "deadline", "max_pivots", "max_branches", "max_disjuncts",
        "max_canonical", "on_exhaustion", "faults",
        "pivots", "branches", "canonical_steps", "peak_disjuncts",
        "checkpoints", "simplex_calls", "exhausted",
        "_clock", "_started", "_cancelled", "_cancel_probe",
    )

    def __init__(self, *,
                 deadline: float | None = None,
                 max_pivots: int | None = None,
                 max_branches: int | None = None,
                 max_disjuncts: int | None = None,
                 max_canonical: int | None = None,
                 on_exhaustion: str = "fail",
                 faults: FaultPlan | None = None,
                 clock: Callable[[], float] = time.monotonic):
        if on_exhaustion not in POLICIES:
            raise ValueError(
                f"on_exhaustion must be one of {POLICIES}, "
                f"got {on_exhaustion!r}")
        for name, value in (("deadline", deadline),
                            ("max_pivots", max_pivots),
                            ("max_branches", max_branches),
                            ("max_disjuncts", max_disjuncts),
                            ("max_canonical", max_canonical)):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        self.deadline = deadline
        self.max_pivots = max_pivots
        self.max_branches = max_branches
        self.max_disjuncts = max_disjuncts
        self.max_canonical = max_canonical
        self.on_exhaustion = on_exhaustion
        self.faults = faults
        self.pivots = 0
        self.branches = 0
        self.canonical_steps = 0
        self.peak_disjuncts = 0
        self.checkpoints = 0
        self.simplex_calls = 0
        #: Name of the budget that tripped (or "cancellation"), kept
        #: even when a degrade policy swallows the exception — stats
        #: capture reads it on every path.
        self.exhausted: str | None = None
        self._clock = clock
        self._started: float | None = None
        self._cancelled = False
        self._cancel_probe: Callable[[], bool] | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self, at: float | None = None) -> None:
        """Start the deadline clock (idempotent; activating the
        guard's context calls this) — at ``at``, an earlier reading of
        the guard's clock, for an execution that was already waiting
        when its guard was made (a queued pool task)."""
        if self._started is None:
            self._started = self._clock() if at is None else at

    def elapsed(self) -> float:
        """Wall-clock seconds since activation (0.0 before)."""
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    # -- cancellation ----------------------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation (safe from any thread);
        observed at the next checkpoint."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def bind_cancel_probe(self, probe: Callable[[], bool] | None) -> None:
        """Attach an external cancellation source, polled at every
        checkpoint.  This is how a *worker process* guard observes a
        cancel issued in the parent: :meth:`cancel` sets a flag in this
        process only, but a probe can read fork-shared memory (the
        cancel board of :mod:`repro.server.procexec`) that the parent
        writes after the worker was forked."""
        self._cancel_probe = probe

    # -- checkpoints and spend ticks -------------------------------------

    def checkpoint(self, fragment: str | None = None) -> None:
        """A cooperative cancellation + deadline checkpoint.

        Hot paths call this at natural unit-of-work boundaries (per
        binding environment, per simplex solve, per canonicalisation).
        """
        self.checkpoints += 1
        if self.faults is not None \
                and self.faults.cancels_at(self.checkpoints):
            self._cancelled = True
        if not self._cancelled and self._cancel_probe is not None \
                and self._cancel_probe():
            self._cancelled = True
        if self._cancelled:
            self.exhausted = "cancellation"
            raise QueryCancelled(spent=self.checkpoints,
                                 fragment=fragment)
        self._check_deadline(fragment)

    def tick_pivots(self, n: int = 1,
                    fragment: str | None = "simplex") -> None:
        """Spend ``n`` simplex pivots."""
        self.pivots += n
        if self.faults is not None \
                and self.faults.exhausts("pivots", self.pivots):
            self._exhaust(PivotBudgetExceeded, "pivots",
                          self.faults.exhaust_after, self.pivots,
                          "fault-injection")
        if self.max_pivots is not None and self.pivots > self.max_pivots:
            self._exhaust(PivotBudgetExceeded, "pivots",
                          self.max_pivots, self.pivots, fragment)
        self._check_deadline(fragment)

    def tick_branch(self, fragment: str | None = "satisfiability") -> None:
        """Spend one disequality branch."""
        self.branches += 1
        if self.faults is not None \
                and self.faults.exhausts("branches", self.branches):
            self._exhaust(BranchBudgetExceeded, "branches",
                          self.faults.exhaust_after, self.branches,
                          "fault-injection")
        if self.max_branches is not None \
                and self.branches > self.max_branches:
            self._exhaust(BranchBudgetExceeded, "branches",
                          self.max_branches, self.branches, fragment)
        self._check_deadline(fragment)

    def tick_canonical(self, n: int = 1,
                       fragment: str | None = "canonical") -> None:
        """Spend ``n`` canonicalisation work units."""
        self.canonical_steps += n
        if self.faults is not None \
                and self.faults.exhausts("canonical", self.canonical_steps):
            self._exhaust(CanonicalizationBudgetExceeded, "canonical",
                          self.faults.exhaust_after, self.canonical_steps,
                          "fault-injection")
        if self.max_canonical is not None \
                and self.canonical_steps > self.max_canonical:
            self._exhaust(CanonicalizationBudgetExceeded, "canonical",
                          self.max_canonical, self.canonical_steps,
                          fragment)
        self._check_deadline(fragment)

    def note_disjuncts(self, count: int,
                       fragment: str | None = "disjunctive") -> None:
        """Record that a disjunction of ``count`` disjuncts was built."""
        if count > self.peak_disjuncts:
            self.peak_disjuncts = count
        if self.faults is not None \
                and self.faults.exhausts("disjuncts", count):
            self._exhaust(DisjunctBudgetExceeded, "disjuncts",
                          self.faults.exhaust_after, count,
                          "fault-injection")
        if self.max_disjuncts is not None and count > self.max_disjuncts:
            self._exhaust(DisjunctBudgetExceeded, "disjuncts",
                          self.max_disjuncts, count, fragment)

    def enter_simplex(self) -> None:
        """Checkpoint at the entry of one exact-simplex solve; the
        hook point for injected solver failures."""
        self.simplex_calls += 1
        self.checkpoint("simplex")
        if self.faults is not None \
                and self.faults.simplex_should_fail(self.simplex_calls):
            raise InjectedFaultError(
                f"injected simplex failure (solve #{self.simplex_calls})")

    def absorb_spend(self, spend: dict) -> None:
        """Fold a worker guard's spend into this guard's counters
        without budget checks (:mod:`repro.server.procexec` hands the
        worker only what this guard had left, so the merged totals
        cannot exceed its limits).  Additive counters sum; peaks max."""
        self.pivots += spend.get("pivots", 0)
        self.branches += spend.get("branches", 0)
        self.canonical_steps += spend.get("canonical_steps", 0)
        self.checkpoints += spend.get("checkpoints", 0)
        self.simplex_calls += spend.get("simplex_calls", 0)
        peak = spend.get("peak_disjuncts", 0)
        if peak > self.peak_disjuncts:
            self.peak_disjuncts = peak

    # -- reporting -------------------------------------------------------

    def spend(self) -> dict:
        """The spend counters as a plain dict (for stats/logging)."""
        return {
            "elapsed": self.elapsed(),
            "pivots": self.pivots,
            "branches": self.branches,
            "canonical_steps": self.canonical_steps,
            "peak_disjuncts": self.peak_disjuncts,
            "checkpoints": self.checkpoints,
            "simplex_calls": self.simplex_calls,
            "exhausted": self.exhausted,
        }

    def __repr__(self) -> str:
        limits = []
        for name, value in (("deadline", self.deadline),
                            ("max_pivots", self.max_pivots),
                            ("max_branches", self.max_branches),
                            ("max_disjuncts", self.max_disjuncts),
                            ("max_canonical", self.max_canonical)):
            if value is not None:
                limits.append(f"{name}={value}")
        return (f"ExecutionGuard({', '.join(limits) or 'no limits'}, "
                f"on_exhaustion={self.on_exhaustion!r})")

    # -- internals -------------------------------------------------------

    def _check_deadline(self, fragment: str | None) -> None:
        if self.deadline is None and (
                self.faults is None
                or self.faults.exhaust_budget != "deadline"):
            return
        spent = self.elapsed()
        if self.faults is not None \
                and self.faults.exhausts("deadline", self.checkpoints):
            self.exhausted = "deadline"
            raise DeadlineExceeded(
                "deadline exceeded", budget="deadline",
                limit=self.faults.exhaust_after, spent=round(spent, 6),
                fragment="fault-injection")
        if self.deadline is not None and spent > self.deadline:
            self.exhausted = "deadline"
            raise DeadlineExceeded(
                "deadline exceeded", budget="deadline",
                limit=self.deadline, spent=round(spent, 6),
                fragment=fragment)

    def _exhaust(self, exc_type, budget: str, limit, spent,
                 fragment: str | None) -> None:
        self.exhausted = budget
        raise exc_type(f"{budget} budget exhausted", budget=budget,
                       limit=limit, spent=spent, fragment=fragment)


def should_degrade(guard: ExecutionGuard | None) -> bool:
    """Does the active guard ask for partial results on exhaustion?"""
    return guard is not None and guard.on_exhaustion == "degrade"
