"""Deterministic fault injection for the resource-governance layer.

The degradation paths of :mod:`repro.runtime.guard` — budget
exhaustion, solver failure, cancellation — are hard to reach with
well-behaved inputs and flaky to reach with pathological ones.  A
:class:`FaultPlan` attached to an :class:`~repro.runtime.guard.ExecutionGuard`
makes every one of them reproducible:

* ``exhaust_budget``/``exhaust_after`` — trip the named budget on the
  Nth spend tick, regardless of any configured limit;
* ``fail_simplex_at`` — raise :class:`repro.errors.InjectedFaultError`
  on the Nth entry into the exact simplex;
* ``cancel_at_checkpoint`` — behave as if :meth:`ExecutionGuard.cancel`
  had been called just before the Nth cooperative checkpoint.

The durable-storage layer (:mod:`repro.storage`) adds I/O faults, so
crash-at-every-record recovery is property-testable without killing
processes:

* ``fail_write_at`` — the Nth storage write fails with nothing
  durable;
* ``torn_write_at``/``torn_write_bytes`` — the Nth storage write
  persists only a prefix (a torn write: the classic crash artifact a
  write-ahead log must tolerate);
* ``fail_fsync_at`` — the Nth fsync fails after the data reached the
  OS but possibly not the platter;
* ``disk_full_after_bytes`` — every write past a cumulative byte
  budget fails, persisting only the bytes under the cap (ENOSPC).

All counters are 1-based and deterministic: the same query against the
same database, from the same cache state, trips at the same spot every
run.  A plan changes no other option, so a warm constraint or plan
cache still answers without the ticks a cold run spends; a test that
counts ticks gives its context ``cache=None`` (or a fresh cache) and
``plan_cache=None``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Budget names a plan may exhaust (mirrors ExecutionGuard's counters).
BUDGETS = ("deadline", "pivots", "branches", "disjuncts", "canonical")


@dataclass
class FaultPlan:
    """A deterministic schedule of injected failures.

    Attach to a guard with ``ExecutionGuard(faults=FaultPlan(...))``.
    A default-constructed plan injects nothing.
    """

    #: Trip this budget as if its limit were ``exhaust_after``.
    exhaust_budget: str | None = None
    #: Spend threshold for ``exhaust_budget``: the budget trips on the
    #: first tick that brings its counter above this value.
    exhaust_after: int = 0
    #: Raise ``InjectedFaultError`` on the Nth simplex solve (1-based).
    fail_simplex_at: int | None = None
    #: Trip cancellation on the Nth cooperative checkpoint (1-based).
    cancel_at_checkpoint: int | None = None
    #: Fail the Nth storage write with nothing persisted (1-based).
    fail_write_at: int | None = None
    #: Tear the Nth storage write: persist only ``torn_write_bytes``.
    torn_write_at: int | None = None
    #: Prefix length a torn write leaves behind.
    torn_write_bytes: int = 8
    #: Fail the Nth storage fsync (1-based).
    fail_fsync_at: int | None = None
    #: Simulate a full disk: writes past this cumulative byte budget
    #: persist only the bytes under the cap, then fail.
    disk_full_after_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.exhaust_budget is not None \
                and self.exhaust_budget not in BUDGETS:
            raise ValueError(
                f"unknown budget {self.exhaust_budget!r}; "
                f"expected one of {BUDGETS}")

    # -- queries used by ExecutionGuard ---------------------------------

    def exhausts(self, budget: str, spent: int) -> bool:
        """Should ``budget`` trip now, given its spend counter?"""
        return (self.exhaust_budget == budget
                and spent > self.exhaust_after)

    def simplex_should_fail(self, call_number: int) -> bool:
        """Should the ``call_number``-th simplex solve fail?"""
        return (self.fail_simplex_at is not None
                and call_number == self.fail_simplex_at)

    def cancels_at(self, checkpoint_number: int) -> bool:
        """Should the ``checkpoint_number``-th checkpoint observe a
        cancellation?"""
        return (self.cancel_at_checkpoint is not None
                and checkpoint_number >= self.cancel_at_checkpoint)

    # -- queries used by the storage layer ------------------------------

    def write_should_fail(self, write_number: int) -> bool:
        """Should the ``write_number``-th storage write fail outright
        (nothing persisted)?"""
        return (self.fail_write_at is not None
                and write_number == self.fail_write_at)

    def write_torn(self, write_number: int) -> bool:
        """Should the ``write_number``-th storage write be torn
        (persist only :attr:`torn_write_bytes`, then fail)?"""
        return (self.torn_write_at is not None
                and write_number == self.torn_write_at)

    def fsync_should_fail(self, fsync_number: int) -> bool:
        """Should the ``fsync_number``-th storage fsync fail?"""
        return (self.fail_fsync_at is not None
                and fsync_number == self.fail_fsync_at)

    def bytes_admitted(self, written_before: int, size: int) -> int:
        """How many of a ``size``-byte write fit under the disk-full
        budget, given the bytes already written (``size`` when no
        budget is configured)."""
        if self.disk_full_after_bytes is None:
            return size
        return max(0, min(size,
                          self.disk_full_after_bytes - written_before))
