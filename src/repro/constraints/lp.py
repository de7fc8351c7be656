"""Linear programming operators: the paper's ``MAX``/``MIN``/``MAX_POINT``/
``MIN_POINT`` SELECT-clause expressions (Section 4.2).

``MAX(f SUBJECT TO ((x1..xn) | phi))`` maximizes the linear objective
``f`` over an existential conjunctive formula ``phi``.  Quantified
variables simply participate in the system (an existential witness is
part of the LP); strict inequalities make the optimum a supremum — per
standard LP practice (and CLP(R))'s treatment) we optimize over the
topological closure and report whether the supremum is *attained*.

Every optimum comes from the exact simplex of
:mod:`repro.constraints.simplex` over the system's rows: exact optima,
as canonical results require.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from repro.errors import ConstraintError, InfeasibleError, UnboundedError
from repro.constraints import simplex
from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.existential import ExistentialConjunctiveConstraint
from repro.constraints.terms import LinearExpression, Variable


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of MAX/MIN.

    ``value`` is the supremum/infimum of the objective; ``attained`` is
    False when only strict constraints prevent reaching it (the paper's
    operators then have no witness point and ``point`` is the closure
    optimizer).  ``point`` binds the free and quantified variables.
    """

    value: Fraction
    point: Mapping[Variable, Fraction]
    attained: bool

    def point_on(self, variables) -> dict[Variable, Fraction]:
        """Restrict the witness point to ``variables`` (e.g. a CST
        object's schema) — the paper's MAX_POINT/MIN_POINT result."""
        return {v: self.point.get(v, Fraction(0)) for v in variables}


def maximize(objective, system) -> simplex.LPResult:
    """Raw maximization (status-style result, no exceptions)."""
    return _solve_raw(objective, system, maximize=True)


def minimize(objective, system) -> simplex.LPResult:
    return _solve_raw(objective, system, maximize=False)


def max_value(objective, system) -> OptimizationResult:
    """The paper's ``MAX(f SUBJECT TO system)``.

    Raises :class:`InfeasibleError` / :class:`UnboundedError` for the
    degenerate cases (the query evaluator maps these onto empty
    answers / errors per its own policy).
    """
    return _optimize(objective, system, maximize=True)


def min_value(objective, system) -> OptimizationResult:
    """The paper's ``MIN(f SUBJECT TO system)``."""
    return _optimize(objective, system, maximize=False)


def _coerce_system(system) -> ConjunctiveConstraint:
    if isinstance(system, ExistentialConjunctiveConstraint):
        # Quantified variables take part in the optimization as witnesses;
        # the optimum over ((x..)|phi) equals the optimum over phi when
        # the objective only mentions free variables.
        return system.body
    if isinstance(system, ConjunctiveConstraint):
        return system
    if isinstance(system, LinearConstraint):
        return ConjunctiveConstraint.of(system)
    raise ConstraintError(
        f"MAX/MIN SUBJECT TO requires an existential conjunctive "
        f"formula, got {type(system).__name__}")


def _coerce_systems(system) -> list[ConjunctiveConstraint]:
    """The system as a list of conjunctive branches.

    The paper types MAX/MIN over existential conjunctive formulas; we
    extend them to the disjunctive families by optimizing each branch
    and combining (the optimum over a union is the best over its
    parts) — needed e.g. to minimize over recurring time windows.
    """
    from repro.constraints.disjunctive import DisjunctiveConstraint
    from repro.constraints.existential import (
        DisjunctiveExistentialConstraint)
    if isinstance(system, DisjunctiveConstraint):
        return list(system.disjuncts)
    if isinstance(system, DisjunctiveExistentialConstraint):
        return [d.body for d in system.disjuncts]
    return [_coerce_system(system)]


def _closure(objective: LinearExpression, conj: ConjunctiveConstraint
             ) -> tuple:
    """The LP over the closure of ``conj``: its rows, ``<`` weakened to
    ``<=`` (:func:`simplex.objective_columns`)."""
    if any(row[2] is Relop.NE for row in conj.rows):
        raise ConstraintError(
            "MAX/MIN over a system with disequalities is not a single "
            "linear program; split the disequalities first")
    return simplex.objective_columns(objective, conj.columns, [
        (cols, coeffs, Relop.LE, bound) if relop is Relop.LT
        else (cols, coeffs, relop, bound)
        for cols, coeffs, relop, bound in conj.rows])


def _solve_raw(objective, system, maximize: bool) -> simplex.LPResult:
    return simplex.solve_rows(*_closure(LinearExpression.coerce(objective),
                                        _coerce_system(system)), maximize)


def _optimize(objective, system, maximize: bool) -> OptimizationResult:
    branches = _coerce_systems(system)
    if len(branches) > 1:
        return _optimize_branches(objective, branches, maximize)
    if not branches:
        raise InfeasibleError("SUBJECT TO system is unsatisfiable "
                              "(empty disjunction)")
    conj = branches[0]
    objective = LinearExpression.coerce(objective)
    has_strict = any(row[2] is Relop.LT for row in conj.rows)
    result = simplex.solve_rows(*_closure(objective, conj), maximize)
    if result.is_infeasible:
        raise InfeasibleError("SUBJECT TO system is unsatisfiable")
    if result.is_unbounded:
        direction = "above" if maximize else "below"
        raise UnboundedError(f"objective is unbounded {direction}")
    value, point = result.value, dict(result.point)

    attained = True
    if has_strict:
        # The optimum is attained iff some point of the *open* region
        # reaches it: check satisfiability of the original (strict)
        # system together with "objective = value".
        witness = conj.conjoin(
            LinearConstraint.build(objective, Relop.EQ, value))
        sample = witness.sample_point()
        if sample is None:
            attained = False
        else:
            point = dict(sample)
    # Strict feasibility of the open region itself must hold for the
    # problem to be meaningful at all.
    if has_strict and not conj.is_satisfiable():
        raise InfeasibleError("SUBJECT TO system is unsatisfiable "
                              "(only its closure is feasible)")
    return OptimizationResult(value=value, point=point, attained=attained)


def _optimize_branches(objective, branches,
                       maximize: bool) -> OptimizationResult:
    """Optimize each disjunct independently; the union's optimum is the
    best branch optimum."""
    best: OptimizationResult | None = None
    feasible = False
    for branch in branches:
        try:
            result = _optimize(objective, branch, maximize)
        except InfeasibleError:
            continue
        feasible = True
        if best is None \
                or (maximize and result.value > best.value) \
                or (not maximize and result.value < best.value) \
                or (result.value == best.value and result.attained
                    and not best.attained):
            best = result
    if not feasible or best is None:
        raise InfeasibleError("SUBJECT TO system is unsatisfiable "
                              "(every disjunct is empty)")
    return best

