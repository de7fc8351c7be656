"""Differential test: the exact solver over rows against the atom path.

Satisfiability, the interval prefilter, redundancy removal and MAX/MIN
read a conjunction's integer rows (``columns`` / ``rows``) and hand
them to the simplex as stored; the strict-inequality slack is one more,
unnamed column.  This module keeps the atom path they replaced — the
prefilter, ``sample_point`` / ``_solve_branches`` / ``_solve_strict``
over atoms with an ``__eps__`` variable for the slack, the redundancy
pass over sorted atoms and MAX/MIN over weakened atoms — as an oracle,
and checks on drawn systems (every relop, ``!=`` splits, trivial rows,
shared and disjoint columns) that both give the same answer, sample
point, canonical printed form, optimum, witness and ``attained`` flag,
and spend the same pivots, branches, simplex solves and box checks.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.constraints import bounds, canonical, kernel, lp, simplex
from repro.constraints.atoms import Ge, Le, LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.implication import negated_atom_branches
from repro.constraints.satisfiability import is_satisfiable, sample_point
from repro.constraints.terms import LinearExpression, Variable
from repro.errors import ConstraintError, InfeasibleError, UnboundedError
from repro.runtime.context import QueryContext
from repro.runtime.guard import ExecutionGuard

#: Names that sort before, between and after where ``__eps__`` sorts.
POOL = [Variable(name) for name in ("A", "Z", "_1", "a", "x", "y")]


# -- the oracle: the atom path -----------------------------------------------


def oracle_box_of(atoms):
    box = {}
    for atom in atoms:
        if atom.relop is Relop.NE:
            continue
        terms = atom.terms
        if not terms:
            if not atom.trivial_truth():
                return None
            continue
        if len(terms) != 1:
            continue
        (var, coeff), = terms
        value = atom.bound / coeff
        relop = atom.relop if coeff > 0 else atom.relop.flipped
        tightened = bounds._tighten(box.get(var, bounds.FULL), relop, value)
        if tightened is None:
            return None
        box[var] = tightened
    return box


def oracle_extremum(terms, box, lower):
    total = Fraction(0)
    attained = True
    for var, coeff in terms:
        lo, lo_open, hi, hi_open = box.get(var, bounds.FULL)
        if (coeff > 0) == lower:
            end, open_ = lo, lo_open
        else:
            end, open_ = hi, hi_open
        if end is None:
            return None, False
        total += coeff * end
        attained = attained and not open_
    return total, attained


def oracle_atom_impossible(atom, box):
    terms = atom.terms
    bound = atom.bound
    inf, inf_att = oracle_extremum(terms, box, lower=True)
    if atom.relop is Relop.LE:
        return inf is not None and (inf > bound
                                    or (inf == bound and not inf_att))
    if atom.relop is Relop.LT:
        return inf is not None and inf >= bound
    sup, sup_att = oracle_extremum(terms, box, lower=False)
    if atom.relop is Relop.EQ:
        if inf is not None and (inf > bound
                                or (inf == bound and not inf_att)):
            return True
        return sup is not None and (sup < bound
                                    or (sup == bound and not sup_att))
    return (inf is not None and sup is not None
            and inf == sup == bound and inf_att and sup_att)


def oracle_refutes(conj, ctx):
    ctx.stats.box_checks += 1
    box = oracle_box_of(conj.atoms)
    if box is None:
        ctx.stats.box_refutations += 1
        return True
    for atom in conj.atoms:
        if len(atom.terms) > 1 and oracle_atom_impossible(atom, box):
            ctx.stats.box_refutations += 1
            return True
    return False


def oracle_sample_point(conj, ctx):
    if conj.is_syntactically_false():
        return None
    if ctx.prefilter and oracle_refutes(conj, ctx):
        return None
    base = [a for a in conj.atoms if a.relop is not Relop.NE]
    disequalities = [a for a in conj.atoms if a.relop is Relop.NE]
    return oracle_solve_branches(base, disequalities, conj.variables, ctx)


def oracle_solve_branches(base, pending, all_vars, ctx):
    guard = ctx.guard
    stack = [(base, pending)]
    while stack:
        atoms, rest = stack.pop()
        if guard is not None:
            guard.tick_branch()
        if not rest:
            point = oracle_solve_strict(atoms, all_vars, ctx)
            if point is not None:
                return point
            continue
        atom, remaining = rest[0], rest[1:]
        below, above = atom.split_disequality()
        stack.append((atoms + [above], remaining))
        stack.append((atoms + [below], remaining))
    return None


def oracle_solve_strict(atoms, all_vars, ctx):
    strict = [a for a in atoms if a.relop is Relop.LT]
    non_strict = [a for a in atoms if a.relop is not Relop.LT]
    if not strict:
        point = simplex.feasible_point(non_strict, ctx=ctx)
        return oracle_restrict(point, all_vars) if point is not None \
            else None
    eps = Variable("__eps__")
    # The slack combination ``atom + (eps <= 0)``, built from the
    # atom's expression.
    relaxed = non_strict + [
        LinearConstraint.build(atom.expression + eps, Relop.LE, atom.bound)
        for atom in strict]
    relaxed += [Le(eps, 1), Ge(eps, 0)]
    result = simplex.solve(eps.as_expression(), relaxed, maximize=True,
                           ctx=ctx)
    if not result.is_optimal or result.value <= 0:
        return None
    point = dict(result.point)
    point.pop(eps, None)
    return oracle_restrict(point, all_vars)


def oracle_restrict(point, all_vars):
    return {v: point.get(v, Fraction(0)) for v in all_vars}


def oracle_is_satisfiable(conj, ctx):
    if conj.is_syntactically_false():
        return False
    verdict = kernel.quick_satisfiable(conj, ctx)
    if verdict is not None:
        return verdict
    return oracle_sample_point(conj, ctx) is not None


def oracle_canonical(conj, ctx):
    """The redundancy pass over sorted atoms, and its printed form."""
    if conj.is_true():
        return "TRUE"
    if not oracle_is_satisfiable(conj, ctx):
        return "FALSE"
    atoms = sorted(conj.atoms, key=LinearConstraint.sort_key)
    kept = []
    for i, atom in enumerate(atoms):
        ctx.guard.tick_canonical()
        context = ConjunctiveConstraint(kept + atoms[i + 1:])
        if not all(not oracle_is_satisfiable(context.conjoin(branch), ctx)
                   for branch in negated_atom_branches(atom)):
            kept.append(atom)
    if not kept:
        return "TRUE"
    return " and ".join(str(a) for a in kept)


def oracle_optimize(objective, conj, maximize, ctx):
    """MAX/MIN over the closure (weakened atoms), then ``attained``."""
    if any(a.relop is Relop.NE for a in conj.atoms):
        raise ConstraintError("disequalities")
    non_strict = [a.weakened() for a in conj.atoms]
    has_strict = any(a.relop is Relop.LT for a in conj.atoms)
    result = simplex.solve(objective, non_strict, maximize=maximize,
                           ctx=ctx)
    if result.is_infeasible:
        raise InfeasibleError("infeasible")
    if result.is_unbounded:
        raise UnboundedError("unbounded")
    value, point = result.value, dict(result.point)
    attained = True
    if has_strict:
        witness = conj.conjoin(
            LinearConstraint.build(objective, Relop.EQ, value))
        sample = oracle_sample_point(witness, ctx)
        if sample is None:
            attained = False
        else:
            point = dict(sample)
    if has_strict and not oracle_is_satisfiable(conj, ctx):
        raise InfeasibleError("only the closure is feasible")
    return value, point, attained


# -- running both ----------------------------------------------------------------


def fresh():
    """A context whose counters start at zero; nothing is memoized."""
    return QueryContext(guard=ExecutionGuard(), cache=None, numeric=False)


def spent(ctx):
    guard, stats = ctx.guard, ctx.stats
    return (guard.pivots, guard.branches, guard.canonical_steps,
            stats.simplex_solves, stats.box_checks, stats.box_refutations)


def outcome(run, ctx):
    """``run(ctx)``'s result or error type, and what it spent."""
    try:
        with ctx.activate():
            result = run(ctx)
    except ConstraintError as exc:
        result = type(exc)
    return result, spent(ctx)


def both(rows_run, oracle_run):
    got = outcome(rows_run, fresh())
    assert got == outcome(oracle_run, fresh())
    return got[0]


# -- strategies -----------------------------------------------------------------

coefficients = st.integers(-3, 3)
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
RELOPS = [Relop.EQ, Relop.LE, Relop.LT, Relop.GE, Relop.GT, Relop.NE]


@st.composite
def atoms(draw, variables, relops=RELOPS):
    """An atom over some of ``variables``; all-zero coefficients give a
    trivial TRUE or FALSE row."""
    chosen = draw(st.lists(st.sampled_from(variables), max_size=3,
                           unique_by=lambda v: v.name))
    expr = LinearExpression({var: draw(coefficients) for var in chosen})
    return LinearConstraint.build(expr, draw(st.sampled_from(relops)),
                                  draw(rationals))


@st.composite
def systems(draw, relops=RELOPS):
    """A conjunction over a shared pool, or two blocks over disjoint
    columns; at most two disequalities, so branching stays small."""
    pool = draw(st.permutations(POOL))
    if draw(st.booleans()):
        blocks = [pool[:4]]
    else:
        blocks = [pool[:3], pool[3:]]
    drawn = [draw(atoms(block, relops)) for block in blocks
             for _ in range(draw(st.integers(1, 4)))]
    extra = [atom for atom in drawn if atom.relop is Relop.NE][2:]
    return ConjunctiveConstraint([a for a in drawn if a not in extra])


SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestAgainstTheAtomPath:
    @SETTINGS
    @given(systems())
    def test_satisfiability_and_sample_point(self, conj):
        point = both(lambda ctx: sample_point(conj, ctx),
                     lambda ctx: oracle_sample_point(conj, ctx))
        if point is not None:
            assert set(point) == conj.variables
            assert conj.holds_at(point)
        both(lambda ctx: is_satisfiable(conj, ctx),
             lambda ctx: oracle_is_satisfiable(conj, ctx))

    @SETTINGS
    @given(systems())
    def test_canonical_printed_form(self, conj):
        both(lambda ctx: str(canonical.canonical_conjunctive(conj, ctx=ctx)),
             lambda ctx: oracle_canonical(conj, ctx))

    @SETTINGS
    @given(systems(),
           st.lists(st.sampled_from(POOL), max_size=3,
                    unique_by=lambda v: v.name),
           st.booleans(), st.data())
    def test_max_min(self, conj, objective_vars, maximize, data):
        objective = LinearExpression(
            {var: data.draw(rationals) for var in objective_vars},
            data.draw(rationals))
        optimize = lp.max_value if maximize else lp.min_value

        def rows_run(ctx):
            result = optimize(objective, conj)
            return result.value, dict(result.point), result.attained

        both(rows_run,
             lambda ctx: oracle_optimize(objective, conj, maximize, ctx))


class TestSlackColumn:
    @pytest.mark.parametrize("name", ["A", "_1", "a", "__eps__", "~"])
    def test_slack_sorts_where_its_name_would(self, name):
        """The slack column sits where ``__eps__`` sorts among the
        columns (a variable of that very name included), so the tableau
        pivots as it did with a named slack."""
        var, other = Variable(name), Variable("x")
        conj = ConjunctiveConstraint.of(Le(var - other, 0), Le(-var, 0),
                                        Le(other, 2), Le(var + other, 3))
        strict = conj.conjoin(LinearConstraint.build(var, Relop.LT, other))
        if name == "__eps__":       # the atom path would have collided
            assert sample_point(strict) is not None
            return
        both(lambda ctx: sample_point(strict, ctx),
             lambda ctx: oracle_sample_point(strict, ctx))
