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

from bisect import bisect_left
from fractions import Fraction
from typing import Mapping, Sequence

from repro.constraints import bounds, simplex
from repro.constraints.atoms import (
    ExactRow,
    Relop,
    combine_rows,
    move_columns,
    split_row,
)
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.terms import Variable
from repro.runtime import context as context_mod
from repro.runtime.context import QueryContext

#: The strict-inequality slack is an unnamed column (no variable can
#: collide with it) placed where this name sorts among the columns.
_SLACK_SORTS_AS = "__eps__"


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

    The returned point binds every variable of ``conj`` and satisfies
    every row, including strict inequalities and disequalities.  An
    interval prefilter (:mod:`repro.constraints.bounds`) refutes
    box-empty conjunctions before any simplex work; it is sound
    (refutation-only), so the answer is unchanged.
    """
    if conj.is_syntactically_false():
        return None
    resolved = context_mod.resolve(ctx)
    if resolved.prefilter and bounds.refutes(conj, resolved):
        return None
    base = [row for row in conj.rows if row[2] is not Relop.NE]
    disequalities = [row for row in conj.rows if row[2] is Relop.NE]
    return _solve_branches(conj.columns, base, disequalities, resolved)


def _solve_branches(columns: tuple[Variable, ...], base: list[ExactRow],
                    pending: list[ExactRow], ctx: QueryContext
                    ) -> Mapping[Variable, Fraction] | None:
    """DFS over the <,> splits of pending disequality rows.

    The search is an explicit worklist rather than recursion: with many
    disequalities the recursive formulation would overflow Python's
    stack long before the 2^k leaves were enumerated, and the explicit
    loop gives the branch budget a single checkpoint.  Each worklist
    entry pairs the accumulated strict branches with the disequalities
    still to split; entries are pushed so that the ``<`` branch of the
    first pending disequality is explored first (the recursive order).
    """
    guard = ctx.guard
    stack: list[tuple[list[ExactRow], list[ExactRow]]] = [(base, pending)]
    while stack:
        rows, rest = stack.pop()
        if guard is not None:
            guard.tick_branch()
        if not rest:
            point = _solve_strict(columns, rows, ctx)
            if point is not None:
                return point
            continue
        below, above = split_row(rest[0])
        stack.append((rows + [above], rest[1:]))
        stack.append((rows + [below], rest[1:]))
    return None


def _solve_strict(columns: tuple[Variable, ...], rows: Sequence[ExactRow],
                  ctx: QueryContext) -> Mapping[Variable, Fraction] | None:
    """Feasible point of a system of =, <=, < rows over ``columns``, or
    None.  Every column occurs in a row, so the point binds them all."""
    strict = [row for row in rows if row[2] is Relop.LT]
    non_strict = [row for row in rows if row[2] is not Relop.LT]
    if not strict:
        result = simplex.solve_rows(columns, non_strict, {}, ctx=ctx)
        return result.point if result.is_optimal else None

    # The slack column s: each strict row plus ``s <= 0`` becomes
    # non-strict, and ``0 <= s <= 1`` bounds s.
    s = bisect_left([var.name for var in columns], _SLACK_SORTS_AS)
    target = [j + (j >= s) for j in range(len(columns))]
    slack = ((s,), (1,), Relop.LE, Fraction(0))
    relaxed = move_columns(non_strict, target) + [
        combine_rows(1, row, 1, slack, Relop.LE)
        for row in move_columns(strict, target)]
    relaxed += [((s,), (1,), Relop.LE, Fraction(1)),
                ((s,), (-1,), Relop.LE, Fraction(0))]
    result = simplex.solve_rows(columns[:s] + (None,) + columns[s:],
                                relaxed, {s: Fraction(1)}, ctx=ctx)
    if not result.is_optimal or result.value <= 0:
        return None
    return result.point
