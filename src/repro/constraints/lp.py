"""Linear programming operators: the paper's ``MAX``/``MIN``/``MAX_POINT``/
``MIN_POINT`` SELECT-clause expressions (Section 4.2).

``MAX(f SUBJECT TO ((x1..xn) | phi))`` maximizes the linear objective
``f`` over an existential conjunctive formula ``phi``.  Quantified
variables simply participate in the system (an existential witness is
part of the LP); strict inequalities make the optimum a supremum — per
standard LP practice (and CLP(R))'s treatment) we optimize over the
topological closure and report whether the supremum is *attained*.

Two backends:

* ``exact`` (default) — the rational simplex of
  :mod:`repro.constraints.simplex`; exact optima, required for canonical
  results;
* ``scipy`` — ``scipy.optimize.linprog`` (HiGHS) on floats; kept as the
  ablation baseline of experiment E11 and for large problems where exact
  arithmetic is too slow.
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


def max_value(objective, system, backend: str = "exact"
              ) -> OptimizationResult:
    """The paper's ``MAX(f SUBJECT TO system)``.

    Raises :class:`InfeasibleError` / :class:`UnboundedError` for the
    degenerate cases (the query evaluator maps these onto empty
    answers / errors per its own policy).
    """
    return _optimize(objective, system, maximize=True, backend=backend)


def min_value(objective, system, backend: str = "exact"
              ) -> OptimizationResult:
    """The paper's ``MIN(f SUBJECT TO system)``."""
    return _optimize(objective, system, maximize=False, backend=backend)


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


def _split_atoms(conj: ConjunctiveConstraint):
    if conj.disequalities():
        raise ConstraintError(
            "MAX/MIN over a system with disequalities is not a single "
            "linear program; split the disequalities first")
    non_strict = [a.weakened() for a in conj.atoms]
    has_strict = any(a.relop is Relop.LT for a in conj.atoms)
    return non_strict, has_strict


def _solve_raw(objective, system, maximize: bool) -> simplex.LPResult:
    conj = _coerce_system(system)
    non_strict, _ = _split_atoms(conj)
    return simplex.solve(LinearExpression.coerce(objective), non_strict,
                         maximize=maximize)


def _optimize(objective, system, maximize: bool,
              backend: str) -> OptimizationResult:
    branches = _coerce_systems(system)
    if len(branches) > 1:
        return _optimize_branches(objective, branches, maximize,
                                  backend)
    if not branches:
        raise InfeasibleError("SUBJECT TO system is unsatisfiable "
                              "(empty disjunction)")
    conj = branches[0]
    objective = LinearExpression.coerce(objective)
    non_strict, has_strict = _split_atoms(conj)

    if backend == "exact":
        result = simplex.solve(objective, non_strict, maximize=maximize)
        if result.is_infeasible:
            raise InfeasibleError("SUBJECT TO system is unsatisfiable")
        if result.is_unbounded:
            direction = "above" if maximize else "below"
            raise UnboundedError(f"objective is unbounded {direction}")
        value, point = result.value, dict(result.point)
    elif backend == "scipy":
        value, point = _scipy_solve(objective, non_strict, maximize)
    else:
        raise ValueError(f"unknown LP backend {backend!r}")

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


def _optimize_branches(objective, branches, maximize: bool,
                       backend: str) -> OptimizationResult:
    """Optimize each disjunct independently; the union's optimum is the
    best branch optimum."""
    best: OptimizationResult | None = None
    feasible = False
    for branch in branches:
        try:
            result = _optimize(objective, branch, maximize, backend)
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


def _scipy_solve(objective: LinearExpression,
                 atoms: list[LinearConstraint],
                 maximize: bool) -> tuple[Fraction, dict[Variable, Fraction]]:
    """Float LP via scipy/HiGHS; results are converted to (approximate)
    Fractions — use only where exactness is not required."""
    try:
        import numpy as np
        from scipy.optimize import linprog
    except ImportError as exc:  # pragma: no cover - scipy is installed here
        raise ConstraintError(
            "the scipy backend requires scipy to be installed") from exc

    variables = sorted(
        set(objective.variables).union(*(a.variables for a in atoms))
        if atoms else set(objective.variables),
        key=lambda v: v.name)
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)

    c = np.zeros(n)
    for var, coeff in objective.coefficients.items():
        c[index[var]] = float(coeff)
    if maximize:
        c = -c

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for atom in atoms:
        row = np.zeros(n)
        for var, coeff in atom.terms:
            row[index[var]] = float(coeff)
        if atom.relop is Relop.LE:
            a_ub.append(row)
            b_ub.append(float(atom.bound))
        else:
            a_eq.append(row)
            b_eq.append(float(atom.bound))

    result = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(None, None)] * n,
        method="highs")
    if result.status == 2:
        raise InfeasibleError("SUBJECT TO system is unsatisfiable")
    if result.status == 3:
        raise UnboundedError("objective is unbounded")
    if not result.success:  # pragma: no cover - defensive
        raise ConstraintError(f"scipy linprog failed: {result.message}")

    value = Fraction(str(float(-result.fun if maximize else result.fun)))
    value += objective.constant_term
    point = {v: Fraction(str(float(result.x[index[v]])))
             for v in variables}
    return value, point
