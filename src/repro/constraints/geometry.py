"""Geometric helpers for low-dimensional CST objects.

The paper positions linear constraints as the conceptual representation
of spatial data ("for low-dimensional space, the best known data
structures and algorithms will be used").  This module supplies the
small computational-geometry toolbox the examples and workloads need:
exact 2-D vertex enumeration, polygon area, and translation/scaling of
CST objects.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from repro.errors import DimensionError
from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject
from repro.constraints.terms import (
    RationalLike,
    Variable,
    to_fraction,
)


def box(schema: Sequence[Variable],
        bounds: Sequence[tuple[RationalLike, RationalLike]]) -> CSTObject:
    """Axis-aligned box ``lo_i <= x_i <= hi_i`` as a CST object."""
    if len(schema) != len(bounds):
        raise DimensionError("schema and bounds lengths differ")
    atoms = []
    for var, (lo, hi) in zip(schema, bounds):
        atoms.append(LinearConstraint.build(var, Relop.GE, to_fraction(lo)))
        atoms.append(LinearConstraint.build(var, Relop.LE, to_fraction(hi)))
    return CSTObject.from_atoms(schema, atoms)


def translate(obj: CSTObject, offsets: Sequence[RationalLike]) -> CSTObject:
    """The CST object shifted by ``offsets`` (same schema)."""
    if len(offsets) != obj.dimension:
        raise DimensionError("offset arity does not match dimension")
    bindings = {
        var: var.as_expression() - to_fraction(delta)
        for var, delta in zip(obj.schema, offsets)}
    return CSTObject(obj.schema, obj.constraint.substitute(bindings))


def scale(obj: CSTObject, factor: RationalLike) -> CSTObject:
    """The CST object scaled about the origin by a positive factor."""
    f = to_fraction(factor)
    if f <= 0:
        raise ValueError("scale factor must be positive")
    bindings = {var: var.as_expression() / f for var in obj.schema}
    return CSTObject(obj.schema, obj.constraint.substitute(bindings))


def vertices_2d(conj: ConjunctiveConstraint,
                schema: Sequence[Variable]
                ) -> list[tuple[Fraction, Fraction]]:
    """Vertices of a bounded 2-D polyhedron, in counter-clockwise order.

    Strictness and disequalities are ignored (the closure's vertices are
    returned).  Raises :class:`DimensionError` when the constraint
    mentions variables outside the two schema variables.
    """
    if len(schema) != 2:
        raise DimensionError("vertices_2d needs a 2-variable schema")
    extra = conj.variables - set(schema)
    if extra:
        raise DimensionError(
            f"constraint is not 2-D: extra variables "
            f"{sorted(v.name for v in extra)}")
    return _ccw_sort(vertices_nd(conj, schema))


def vertices_nd(conj: ConjunctiveConstraint,
                schema: Sequence[Variable]
                ) -> list[tuple[Fraction, ...]]:
    """Vertices of a bounded polyhedron in any dimension.

    Classical basis enumeration: every vertex is the unique solution of
    some choice of ``n`` linearly independent active constraints, so we
    solve each n-subset of the hyperplanes and keep feasible solutions.
    Exponential in ``n`` over the atom count — meant for the small
    dimensions of the examples, not as a scalable hull algorithm.
    Strictness and disequalities are ignored (the closure's vertices).
    """
    vars_ = list(schema)
    n = len(vars_)
    extra = conj.variables - set(vars_)
    if extra:
        raise DimensionError(
            f"constraint mentions variables outside the schema: "
            f"{sorted(v.name for v in extra)}")
    if n == 0:
        return []

    # The rows as half-spaces ``vector . x <= bound`` over the schema
    # (an equality both ways): the closure, and the hyperplanes whose
    # n-subsets meet in the candidate vertices.
    position = [vars_.index(var) for var in conj.columns]
    rows: list[tuple[list[Fraction], Fraction]] = []
    for cols, coeffs, relop, bound in conj.rows:
        if relop is Relop.NE:
            continue
        vector = [Fraction(0)] * n
        for j, coeff in zip(cols, coeffs):
            vector[position[j]] = Fraction(coeff)
        rows.append((vector, bound))
        if relop is Relop.EQ:
            rows.append(([-c for c in vector], -bound))

    points: set[tuple[Fraction, ...]] = set()
    for combo in itertools.combinations(range(len(rows)), n):
        solution = _solve_square([rows[i] for i in combo], n)
        if solution is not None and all(
                sum(c * v for c, v in zip(vector, solution)) <= bound
                for vector, bound in rows):
            points.add(tuple(solution))
    return sorted(points)


def _solve_square(system: list[tuple[list[Fraction], Fraction]],
                  n: int) -> list[Fraction] | None:
    """Solve an n x n linear system by Gaussian elimination; None when
    singular."""
    matrix = [list(coeffs) + [rhs] for coeffs, rhs in system]
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if matrix[r][col] != 0), None)
        if pivot_row is None:
            return None
        matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        pivot = matrix[col][col]
        matrix[col] = [v / pivot for v in matrix[col]]
        for r in range(n):
            if r != col and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b
                             for a, b in zip(matrix[r], matrix[col])]
    return [matrix[r][n] for r in range(n)]


def polygon_area(vertices: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    """Shoelace area of a CCW-ordered polygon."""
    if len(vertices) < 3:
        return Fraction(0)
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(vertices,
                                  vertices[1:] + [vertices[0]]):
        total += x1 * y2 - x2 * y1
    return total / 2


def area_2d(obj: CSTObject) -> Fraction:
    """Exact area of a bounded 2-D conjunctive CST object's closure."""
    if obj.dimension != 2:
        raise DimensionError("area_2d needs dimension 2")
    disjuncts = obj._flat_disjuncts()
    if len(disjuncts) > 1:
        raise DimensionError(
            "area_2d supports convex (conjunctive) objects only; "
            "decompose unions first")
    total = Fraction(0)
    for conj in disjuncts:
        total += polygon_area(vertices_2d(conj, obj.schema))
    return total


def cut(obj: CSTObject, var: Variable, value: RationalLike,
        remaining: Sequence[Variable]) -> CSTObject:
    """Cross-section: fix ``var = value`` and project onto ``remaining``.

    Implements the paper's "show a projection of their cut at the height
    of 1/2 feet" query shape.
    """
    pinned = obj.conjoin_atoms(
        [LinearConstraint.build(var, Relop.EQ, to_fraction(value))])
    return pinned.project(remaining)


def _ccw_sort(points: list[tuple[Fraction, Fraction]]
              ) -> list[tuple[Fraction, Fraction]]:
    if len(points) <= 2:
        return sorted(points)
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def half_and_slope(p):
        dx, dy = p[0] - cx, p[1] - cy
        # Order by angle without trigonometry: split into half-planes,
        # then sort by exact slope comparison via cross products.
        half = 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1
        return half, dx, dy

    def compare_key(p):
        half, dx, dy = half_and_slope(p)
        return (half, _pseudo_angle(dx, dy))

    return sorted(points, key=compare_key)


def _pseudo_angle(dx: Fraction, dy: Fraction) -> Fraction:
    """Monotone-in-angle rational surrogate within a half-plane."""
    denom = abs(dx) + abs(dy)
    if denom == 0:
        return Fraction(0)
    return -dx / denom if dy >= 0 else dx / denom
