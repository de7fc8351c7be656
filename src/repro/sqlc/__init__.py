"""Flat "SQL with constraints": relations, plan algebra, box indexes,
optimizer and execution engine — the Section 5 translation target."""

from repro.sqlc.algebra import (
    And,
    ColumnEq,
    ColumnLiteral,
    CstPredicate,
    Distinct,
    Extend,
    IndexJoin,
    NaturalJoin,
    Not,
    Or,
    Plan,
    Predicate,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.sqlc.engine import ExecutionStats, execute
from repro.sqlc.index import (
    BoxIndex,
    candidate_pairs,
    index_for,
)
from repro.sqlc.optimizer import (
    optimize,
    push_selections,
    reorder_joins,
    select_index_joins,
)
from repro.sqlc.relation import ConstraintRelation

__all__ = [
    "And",
    "BoxIndex",
    "ColumnEq",
    "ColumnLiteral",
    "ConstraintRelation",
    "CstPredicate",
    "Distinct",
    "ExecutionStats",
    "Extend",
    "IndexJoin",
    "NaturalJoin",
    "Not",
    "Or",
    "Plan",
    "Predicate",
    "Project",
    "Rename",
    "Scan",
    "Select",
    "Union",
    "candidate_pairs",
    "execute",
    "index_for",
    "optimize",
    "push_selections",
    "reorder_joins",
    "select_index_joins",
]
