"""The linear-constraint engine substrate.

Implements Section 3 of Brodsky & Kornatzky (SIGMOD 1995): linear
arithmetic constraint atoms, the four constraint families (conjunctive,
existential conjunctive, disjunctive, disjunctive existential), their
canonical forms, satisfiability, entailment (``|=``), restricted and
full projection, and the linear-programming operators.

Public entry points are re-exported here; submodules remain importable
for the finer-grained APIs.
"""

from repro.constraints.atoms import (
    Eq,
    Ge,
    Gt,
    Le,
    LinearConstraint,
    Lt,
    Ne,
    Relop,
)
from repro.constraints.canonical import canonical_key, canonicalize
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.families import Family, classify
from repro.constraints.lp import (
    OptimizationResult,
    max_value,
    maximize,
    min_value,
    minimize,
)
from repro.constraints.parser import parse_constraint, parse_cst
from repro.constraints.projection import (
    eliminate_variable,
    project_conjunctive,
    restricted_project,
)
from repro.constraints.simplex import LPResult, LPStatus, solve
from repro.constraints.terms import (
    LinearExpression,
    Variable,
    variables,
)

__all__ = [
    "CSTObject",
    "ConjunctiveConstraint",
    "DisjunctiveConstraint",
    "DisjunctiveExistentialConstraint",
    "Eq",
    "ExistentialConjunctiveConstraint",
    "Family",
    "Ge",
    "Gt",
    "LPResult",
    "LPStatus",
    "Le",
    "LinearConstraint",
    "LinearExpression",
    "Lt",
    "Ne",
    "OptimizationResult",
    "Relop",
    "Variable",
    "canonical_key",
    "canonicalize",
    "classify",
    "eliminate_variable",
    "max_value",
    "maximize",
    "min_value",
    "minimize",
    "parse_constraint",
    "parse_cst",
    "project_conjunctive",
    "restricted_project",
    "solve",
    "variables",
]
