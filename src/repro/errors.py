"""Exception hierarchy for the LyriC reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  The sub-hierarchy mirrors the
package layout: constraint-engine errors, data-model errors, and query
language errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


# ---------------------------------------------------------------------------
# Constraint engine
# ---------------------------------------------------------------------------


class ConstraintError(ReproError):
    """Base class for errors raised by :mod:`repro.constraints`."""


class ConstraintFamilyError(ConstraintError):
    """An operation would leave the paper's four constraint families.

    Section 3.1 of the paper restricts projection on conjunctive and
    disjunctive constraints to eliminating one, or all-but-one, variable,
    and forbids existential quantification over disjunctive existential
    constraints.  Violations raise this error instead of silently doing
    potentially exponential work.
    """


class NonLinearError(ConstraintError):
    """A term that must be linear (after instantiation) is not."""


class InfeasibleError(ConstraintError):
    """An LP optimisation was attempted over an unsatisfiable system."""


class UnboundedError(ConstraintError):
    """An LP objective is unbounded over the feasible region."""


class ConstraintSyntaxError(ConstraintError):
    """Textual constraint input could not be parsed."""


class InjectedFaultError(ConstraintError):
    """A failure injected by the fault harness.

    Raised only when a :class:`repro.runtime.FaultPlan` asks a
    component (e.g. the simplex) to fail deterministically, so that
    error-handling paths can be exercised without pathological inputs.
    """


class DimensionError(ConstraintError):
    """A CST object was used with the wrong number of variables."""


# ---------------------------------------------------------------------------
# Object-oriented data model
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for errors raised by :mod:`repro.model`."""


class SchemaError(ModelError):
    """Invalid schema definition (duplicate class, cyclic IS-A, ...)."""


class UnknownClassError(SchemaError):
    """Reference to a class that is not defined in the schema."""


class UnknownAttributeError(SchemaError):
    """Reference to an attribute that is not defined on a class."""


class IntegrityError(ModelError):
    """A database instance violates its schema."""


class UnknownObjectError(ModelError):
    """Reference to an oid not present in the database."""


# ---------------------------------------------------------------------------
# Durable storage (repro.storage)
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """Base class for errors raised by :mod:`repro.storage`."""


class StoreWriteError(StoreError):
    """A storage write or fsync failed (really, or by injection).

    After this error the in-process :class:`repro.storage.Store` is
    *broken* — the on-disk log may end in a torn record — and refuses
    further mutations; reopening the store runs recovery.
    """


class StoreCorruptError(StoreError):
    """A store could not be recovered to any consistent state.

    Raised only when *no* snapshot generation on disk is readable;
    partial damage (torn WAL tails, corrupt records, missing files)
    degrades to the last consistent state with warnings instead.
    """


# ---------------------------------------------------------------------------
# Resource governance (repro.runtime)
# ---------------------------------------------------------------------------


class ResourceExhausted(ReproError):
    """A query exceeded one of its execution budgets.

    Carries structured diagnostics so that callers (and the CLI) can
    report *which* budget tripped and how much work had been done:

    ``budget``
        The budget's name (``"deadline"``, ``"pivots"``, ``"branches"``,
        ``"disjuncts"``, ``"canonical"``, ``"cancellation"``).
    ``limit``
        The configured limit (seconds for the deadline, counts
        otherwise; ``0`` for cancellation).
    ``spent``
        How much had been spent when the budget tripped.
    ``fragment``
        Optional: which engine component was executing (e.g.
        ``"simplex"``, ``"satisfiability"``, ``"evaluator"``), or
        ``"fault-injection"`` for injected exhaustion.
    """

    def __init__(self, message: str, *, budget: str, limit, spent,
                 fragment: str | None = None):
        where = f", in {fragment}" if fragment else ""
        super().__init__(
            f"{message} [budget={budget}, limit={limit}, "
            f"spent={spent}{where}]")
        self.budget = budget
        self.limit = limit
        self.spent = spent
        self.fragment = fragment


class DeadlineExceeded(ResourceExhausted):
    """The wall-clock deadline passed before the query finished."""


class PivotBudgetExceeded(ResourceExhausted):
    """The exact simplex performed more pivots than allowed."""


class BranchBudgetExceeded(ResourceExhausted):
    """Disequality branching explored more branches than allowed."""


class DisjunctBudgetExceeded(ResourceExhausted):
    """A disjunction grew beyond the configured disjunct cap."""


class CanonicalizationBudgetExceeded(ResourceExhausted):
    """Canonicalisation performed more work units than allowed."""


class QueryCancelled(ResourceExhausted):
    """Cooperative cancellation was requested and observed."""

    def __init__(self, message: str = "query cancelled", *,
                 spent=0, fragment: str | None = None):
        super().__init__(message, budget="cancellation", limit=0,
                         spent=spent, fragment=fragment)


# ---------------------------------------------------------------------------
# Query language
# ---------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for errors raised by :mod:`repro.core`."""


class LyricSyntaxError(QueryError):
    """Textual LyriC input could not be tokenized or parsed."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SemanticError(QueryError):
    """A parsed query refers to unknown names or is ill-typed."""


class EvaluationError(QueryError):
    """A runtime failure while evaluating a query."""
