"""Random constraint generators for engine benchmarks (E9, E10, E12).

All generators are deterministic given a seed, use small integer
coefficients (keeping exact arithmetic fast and reproducible), and
produce *satisfiable* systems by construction where stated: every
random polytope is built from inequalities satisfied by a known
interior point.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.terms import LinearExpression, Variable


def make_variables(dimension: int, prefix: str = "x"
                   ) -> list[Variable]:
    return [Variable(f"{prefix}{i}") for i in range(dimension)]


def random_polytope(dimension: int, atoms: int, seed: int = 0,
                    coeff_range: int = 5,
                    variables: Sequence[Variable] | None = None
                    ) -> ConjunctiveConstraint:
    """A satisfiable conjunction of ``atoms`` inequalities in
    ``dimension`` variables.

    Every atom is satisfied at an interior point drawn near the origin,
    so the polytope is nonempty (with slack); a bounding box keeps it
    bounded.
    """
    rng = random.Random(seed)
    vars_ = list(variables) if variables is not None \
        else make_variables(dimension)
    interior = [Fraction(rng.randint(-3, 3)) for _ in vars_]

    out: list[LinearConstraint] = []
    for var, point in zip(vars_, interior):
        out.append(LinearConstraint.build(var, Relop.GE, point - 10))
        out.append(LinearConstraint.build(var, Relop.LE, point + 10))
    for _ in range(atoms):
        coeffs = {v: Fraction(rng.randint(-coeff_range, coeff_range))
                  for v in vars_}
        expr = LinearExpression(coeffs)
        value = expr.evaluate(dict(zip(vars_, interior)))
        slack = Fraction(rng.randint(1, 5))
        out.append(LinearConstraint.build(expr, Relop.LE, value + slack))
    return ConjunctiveConstraint(out)


def scattered_boxes(count: int, dimension: int = 1, seed: int = 0,
                    spread: int = 1000, size: int = 5,
                    prefix: str = "x") -> list[ConjunctiveConstraint]:
    """``count`` small axis-aligned boxes scattered over a wide range —
    the *sparse* join workload (E7's join from text).

    Each constraint bounds every variable to an interval of width up to
    ``size`` with its center drawn uniformly from ``[-spread, spread]``,
    so two random boxes overlap with probability about ``size/spread``
    per dimension: the box index prunes almost every pair while the
    exact intersection remains nontrivial for the survivors.
    """
    rng = random.Random(seed)
    vars_ = make_variables(dimension, prefix)
    out: list[ConjunctiveConstraint] = []
    for _ in range(count):
        atoms: list[LinearConstraint] = []
        for var in vars_:
            center = Fraction(rng.randint(-spread, spread))
            half = Fraction(rng.randint(1, size), 2)
            atoms.append(LinearConstraint.build(
                var, Relop.GE, center - half))
            atoms.append(LinearConstraint.build(
                var, Relop.LE, center + half))
        out.append(ConjunctiveConstraint(atoms))
    return out


def overlapping_polytopes(count: int, dimension: int = 2,
                          extra_atoms: int = 8, seed: int = 0,
                          spread: int = 100, size: int = 60,
                          prefix: str = "x"
                          ) -> list[ConjunctiveConstraint]:
    """``count`` polytopes whose bounding boxes overlap heavily — the
    *dense* join workload (the benchmark's ``dense_join``).

    Each constraint confines every variable to an interval of width
    ``size`` with its center drawn from ``[0, spread]`` (with
    ``size/spread`` large, most box pairs overlap and the index prunes
    little), then adds ``extra_atoms`` random multi-variable
    half-spaces satisfied at the box center with nonnegative slack —
    each polytope is nonempty, but a *pair's* conjunction is
    satisfiable only when the two center-anchored systems share a
    point, so answers come out mixed while per-pair exact
    satisfiability stays genuinely expensive.  Atom counts are
    per-constraint; a joined pair solves the conjoined system.
    """
    rng = random.Random(seed)
    vars_ = make_variables(dimension, prefix)
    out: list[ConjunctiveConstraint] = []
    for _ in range(count):
        center = [Fraction(rng.randint(0, spread)) for _ in vars_]
        half = Fraction(size, 2)
        atoms: list[LinearConstraint] = []
        for var, mid in zip(vars_, center):
            atoms.append(LinearConstraint.build(var, Relop.GE,
                                                mid - half))
            atoms.append(LinearConstraint.build(var, Relop.LE,
                                                mid + half))
        for _ in range(extra_atoms):
            # Couplings keep >= 2 nonzero coefficients, so they never
            # tighten the cheap per-variable boxes: the box index sees
            # only the (deliberately overlapping) size-``size`` boxes.
            coeffs = {v: Fraction(rng.randint(-5, 5)) for v in vars_}
            while sum(1 for c in coeffs.values() if c) < min(2, len(vars_)):
                coeffs = {v: Fraction(rng.randint(-5, 5))
                          for v in vars_}
            expr = LinearExpression(coeffs)
            value = expr.evaluate(dict(zip(vars_, center)))
            slack = Fraction(rng.randint(0, size))
            atoms.append(LinearConstraint.build(expr, Relop.LE,
                                                value + slack))
        out.append(ConjunctiveConstraint(atoms))
    return out


def random_infeasible(dimension: int, atoms: int, seed: int = 0
                      ) -> ConjunctiveConstraint:
    """An unsatisfiable conjunction: a random polytope plus a pair of
    contradicting half-spaces."""
    rng = random.Random(seed)
    vars_ = make_variables(dimension)
    base = random_polytope(dimension, atoms, seed, variables=vars_)
    pivot = vars_[rng.randrange(dimension)]
    return base.conjoin(LinearConstraint.build(
        pivot, Relop.GE, 100)).conjoin(LinearConstraint.build(
            pivot, Relop.LE, -100))


def random_dnf(dimension: int, disjuncts: int, atoms_per_disjunct: int,
               seed: int = 0, infeasible_fraction: float = 0.0
               ) -> DisjunctiveConstraint:
    """A disjunction of random polytopes; a chosen fraction of the
    disjuncts is unsatisfiable (for the E10 canonical-form bench)."""
    rng = random.Random(seed)
    vars_ = make_variables(dimension)
    parts = []
    for i in range(disjuncts):
        part_seed = rng.randrange(1 << 30)
        if rng.random() < infeasible_fraction:
            parts.append(random_infeasible(
                dimension, atoms_per_disjunct, part_seed))
        else:
            parts.append(random_polytope(
                dimension, atoms_per_disjunct, part_seed,
                variables=vars_))
    return DisjunctiveConstraint(parts)


def dense_system(dimension: int, atoms: int | None = None,
                 seed: int = 0) -> ConjunctiveConstraint:
    """A satisfiable dense system: every atom couples *all* variables
    with nonzero coefficients.

    This is the classical Fourier-Motzkin worst-case shape — with
    ``m`` atoms and no sparsity, eliminating ``k`` variables can grow
    the system towards ``(m/2)^(2^k)`` — used by experiment E9 to show
    why the paper restricts projection.
    """
    rng = random.Random(seed)
    vars_ = make_variables(dimension)
    m = atoms if atoms is not None else 2 * dimension
    interior = [Fraction(rng.randint(-2, 2)) for _ in vars_]
    out: list[LinearConstraint] = []
    for _ in range(m):
        coeffs = {v: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                  for v in vars_}
        expr = LinearExpression(coeffs)
        value = expr.evaluate(dict(zip(vars_, interior)))
        out.append(LinearConstraint.build(
            expr, Relop.LE, value + rng.randint(1, 4)))
    return ConjunctiveConstraint(out)


def chained_projection_system(dimension: int, seed: int = 0
                              ) -> ConjunctiveConstraint:
    """A system designed to exhibit Fourier-Motzkin growth: each
    variable has several lower and upper bounds coupling it to the
    others (the E9 blow-up workload)."""
    rng = random.Random(seed)
    vars_ = make_variables(dimension)
    out: list[LinearConstraint] = []
    for i, var in enumerate(vars_):
        others = [v for v in vars_ if v is not var]
        rng.shuffle(others)
        for lower in others[:3]:
            out.append(LinearConstraint.build(
                lower - var, Relop.LE, rng.randint(0, 4)))
        for upper in others[-3:]:
            out.append(LinearConstraint.build(
                var - upper, Relop.LE, rng.randint(0, 4)))
        out.append(LinearConstraint.build(var, Relop.GE, -20))
        out.append(LinearConstraint.build(var, Relop.LE, 20))
    return ConjunctiveConstraint(out)


def redundant_conjunction(dimension: int, base_atoms: int,
                          redundant_atoms: int, seed: int = 0
                          ) -> ConjunctiveConstraint:
    """A polytope plus provably redundant atoms (positive combinations
    of existing ones, weakened) — canonical-form removal fodder."""
    rng = random.Random(seed)
    base = random_polytope(dimension, base_atoms, seed)
    atoms = [a for a in base.atoms if a.relop is Relop.LE]
    extra: list[LinearConstraint] = []
    for _ in range(redundant_atoms):
        first, second = rng.sample(atoms, 2)
        expr = first.expression + second.expression
        bound = first.bound + second.bound + rng.randint(1, 3)
        extra.append(LinearConstraint.build(expr, Relop.LE, bound))
    return base.conjoin(ConjunctiveConstraint(extra))
