"""Satisfiability of conjunctions of linear atoms over the reals.

The paper's WHERE-clause satisfiability predicate ("a disjunctive
existential formula is true iff satisfiable", Section 4.2) bottoms out
here.  The decision procedure is complete for the full atom language:

* equalities and non-strict inequalities go to the exact simplex directly;
* strict inequalities use the classical epsilon trick — replace each
  ``a.x < b`` by ``a.x + eps <= b``, bound ``eps <= 1``, and maximize
  ``eps``; the strict system is satisfiable iff the optimum is positive
  (over the rationals a positive slack can always be realized);
* disequalities branch: ``a.x != b`` splits into ``a.x < b`` or
  ``a.x > b``.  The number of disequalities is a query-size quantity, so
  the branching does not affect data complexity (Section 5).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.constraints import bounds, simplex
from repro.constraints.atoms import Ge, Le, LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.terms import Variable
from repro.errors import ReservedVariableError
from repro.runtime import context as context_mod
from repro.runtime.context import QueryContext

#: Reserved variable for the strict-inequality slack.  The name cannot be
#: produced by :func:`repro.constraints.terms.variables`, and collisions
#: with user variables are checked at use.
_EPSILON_NAME = "__eps__"


def is_satisfiable(conj: ConjunctiveConstraint,
                   ctx: QueryContext | None = None) -> bool:
    """Decide satisfiability over the reals.

    The boolean answer is memoized on the conjunction itself (its
    column names and set of normalized rows are a structural hash), so
    repeated checks of structurally equal conjunctions cost one cache
    probe instead of a simplex run.
    """
    if conj.is_syntactically_false():
        return False
    resolved = context_mod.resolve(ctx)

    def compute() -> bool:
        # Numeric screen first (three-valued; sound accepts via exact
        # verification, ε-sound rejects — see repro.constraints.kernel);
        # undecided systems take the exact simplex as before.
        from repro.constraints import kernel
        verdict = kernel.quick_satisfiable(conj, resolved)
        if verdict is not None:
            return verdict
        return sample_point(conj, resolved) is not None

    return resolved.memoized(("sat", conj), compute)


def sample_point(conj: ConjunctiveConstraint,
                 ctx: QueryContext | None = None
                 ) -> Mapping[Variable, Fraction] | None:
    """A rational point satisfying ``conj``, or None when unsatisfiable.

    The returned point satisfies every atom, including strict
    inequalities and disequalities.  An interval prefilter
    (:mod:`repro.constraints.bounds`) refutes box-empty conjunctions
    before any simplex work; it is sound (refutation-only), so the
    answer is unchanged.
    """
    if conj.is_syntactically_false():
        return None
    resolved = context_mod.resolve(ctx)
    if resolved.prefilter and bounds.refutes(conj, resolved):
        return None
    base = [a for a in conj.atoms if a.relop is not Relop.NE]
    disequalities = conj.disequalities()
    return _solve_branches(base, list(disequalities), conj.variables,
                           resolved)


def _solve_branches(base: list[LinearConstraint],
                    pending: list[LinearConstraint],
                    all_vars: frozenset[Variable],
                    ctx: QueryContext
                    ) -> Mapping[Variable, Fraction] | None:
    """DFS over the <,> splits of pending disequalities.

    The search is an explicit worklist rather than recursion: with many
    disequalities the recursive formulation would overflow Python's
    stack long before the 2^k leaves were enumerated, and the explicit
    loop gives the branch budget a single checkpoint.  Each worklist
    entry pairs the accumulated strict branches with the disequalities
    still to split; entries are pushed so that the ``<`` branch of the
    first pending disequality is explored first (the recursive order).
    """
    guard = ctx.guard
    stack: list[tuple[list[LinearConstraint], list[LinearConstraint]]] \
        = [(base, pending)]
    while stack:
        atoms, rest = stack.pop()
        if guard is not None:
            guard.tick_branch()
        if not rest:
            point = _solve_strict(atoms, all_vars, ctx)
            if point is not None:
                return point
            continue
        atom, remaining = rest[0], rest[1:]
        below, above = atom.split_disequality()
        stack.append((atoms + [above], remaining))
        stack.append((atoms + [below], remaining))
    return None


def _solve_strict(atoms: list[LinearConstraint],
                  all_vars: frozenset[Variable],
                  ctx: QueryContext
                  ) -> Mapping[Variable, Fraction] | None:
    """Feasible point of a system of =, <=, < atoms, or None."""
    strict = [a for a in atoms if a.relop is Relop.LT]
    non_strict = [a for a in atoms if a.relop is not Relop.LT]
    if not strict:
        point = simplex.feasible_point(non_strict, ctx=ctx)
        return _restrict(point, all_vars) if point is not None else None

    for atom in atoms:
        for var in atom.variables:
            if var.name == _EPSILON_NAME:
                raise ReservedVariableError(
                    f"variable name {_EPSILON_NAME!r} is reserved for "
                    "the strict-inequality slack")
    eps = Variable(_EPSILON_NAME)
    slack = Le(eps, 0)
    relaxed = non_strict + [atom.combine(1, slack, 1, Relop.LE)
                            for atom in strict]
    relaxed += [Le(eps, 1), Ge(eps, 0)]

    result = simplex.solve(eps.as_expression(), relaxed, maximize=True,
                           ctx=ctx)
    if not result.is_optimal or result.value <= 0:
        return None
    point = dict(result.point)
    point.pop(eps, None)
    return _restrict(point, all_vars)


def _restrict(point: Mapping[Variable, Fraction] | None,
              all_vars: frozenset[Variable]
              ) -> Mapping[Variable, Fraction] | None:
    """Project the solver's point onto the constraint's variables, binding
    any variable the solver never saw to 0."""
    if point is None:
        return None
    result = {v: point.get(v, Fraction(0)) for v in all_vars}
    return result
