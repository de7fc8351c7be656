"""Float packing of constraint systems.

The exact engine holds a conjunction as integer rows with rational
bounds — right for canonical forms (Section 3.1: identity must not
depend on rounding), wrong for bulk arithmetic.  This module packs
conjunctive bodies into float matrices for the numeric kernel
(:mod:`repro.constraints.kernel`): :class:`PackedSystem` is one body
(:func:`pack_rows`, from a conjunction's rows or a formula template's),
:class:`ConstraintMatrix` a batch of constraints for one kernel call.

Packing is *conservative*: a row whose values do not convert to finite
floats marks the body unsupported (``None``) and the kernel leaves it
to the exact solver.  Disequalities stay out of the float rows (they
carve measure-zero sets the LP cannot see) but in the exact rows, so
an accepted sample point is still verified against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from repro.constraints.atoms import ExactRow, LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.terms import Variable

#: Row kinds in a packed system.
ROW_LE = 0   # a . x <= b   (strict atoms are packed weakened; the
#              exact verification restores strictness)
ROW_EQ = 1   # a . x  = b

#: A packed *unit*: the packed bodies of one constraint (one entry per
#: disjunct; ``None`` entries are unsupported bodies), or ``None`` when
#: the whole constraint cannot be packed.
Unit = "list[PackedSystem | None] | None"


@dataclass(slots=True, eq=False)
class PackedSystem:
    """One conjunctive body as float64 rows over local variables.

    ``rows[i][j]`` is the coefficient of ``variables[j]`` in row ``i``;
    ``kinds[i]`` is :data:`ROW_LE` or :data:`ROW_EQ`; ``scales[i]`` is
    the row's normalization ``max(1, sum |a_ij|, |b_i|)`` used by the
    kernel's elastic margins.  ``exact`` is the body's exact integer
    rows (:data:`ExactRow`, every atom including strict and disequality
    forms) — the ground truth accepts are verified against.
    """

    variables: tuple[Variable, ...]
    rows: list[list[float]]
    rhs: list[float]
    kinds: list[int]
    scales: list[float]
    has_equality: bool
    has_strict: bool
    has_disequality: bool
    exact: tuple[ExactRow, ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_vars(self) -> int:
        return len(self.variables)


#: A row's float form: its coefficients (aligned with its columns), its
#: bound, and its scale ``max(1, sum |a_j|, |b|)`` — or ``None`` when a
#: value does not convert to a finite float.
FloatRow = tuple[tuple[float, ...], float, float] | None


def float_row(coeffs: tuple[int, ...], bound: Fraction) -> FloatRow:
    """The float form of one exact row (what :func:`pack_rows` reads)."""
    try:
        floats = tuple(map(float, coeffs))
        value = bound.numerator / bound.denominator     # float(bound)
    except OverflowError:
        return None
    norm = 0.0
    for f in floats:
        norm += abs(f)
    return floats, value, max(1.0, norm, abs(value))


def pack_rows(variables: tuple[Variable, ...], exact: Sequence[ExactRow],
              floats: Sequence[FloatRow]) -> PackedSystem | None:
    """The row packer: one conjunctive body given as the cleaned exact
    rows of a conjunction over ``variables`` (its columns), in
    conjunction order, and their :func:`float_row` forms; ``None`` when
    an inequality or equality's values do not convert to finite floats
    — the body then stays exact-only."""
    width = len(variables)
    rows: list[list[float]] = []
    rhs: list[float] = []
    kinds: list[int] = []
    scales: list[float] = []
    has_eq = has_strict = has_ne = False
    for (cols, _, relop, _), converted in zip(exact, floats):
        if relop is Relop.NE:
            has_ne = True
            continue            # measure-zero; verified exactly
        if converted is None:
            return None
        floats, value, scale = converted
        row = [0.0] * width
        for j, f in zip(cols, floats):
            row[j] = f
        if relop is Relop.EQ:
            has_eq = True
            kinds.append(ROW_EQ)
        else:
            if relop is Relop.LT:
                has_strict = True
            kinds.append(ROW_LE)
        rows.append(row)
        rhs.append(value)
        scales.append(scale)
    return PackedSystem(variables, rows, rhs, kinds, scales,
                        has_eq, has_strict, has_ne, tuple(exact))


def pack_conjunction(conj: ConjunctiveConstraint
                     ) -> "PackedSystem | None":
    """Pack one conjunctive body's stored rows through
    :func:`pack_rows`; ``None`` for FALSE, or when any coefficient does
    not convert to a finite float (the body then stays exact-only)."""
    if conj.is_syntactically_false():
        return None
    return pack_rows(conj.columns, conj.rows,
                     [float_row(row[1], row[3]) for row in conj.rows])


def bodies_of(constraint: object
              ) -> list[ConjunctiveConstraint] | None:
    """The conjunctive disjunct bodies of any constraint-family member
    (satisfiability-preserving: existential quantification is
    transparent to emptiness), or ``None`` for non-constraints."""
    from repro.constraints.disjunctive import DisjunctiveConstraint
    from repro.constraints.existential import (
        DisjunctiveExistentialConstraint,
        ExistentialConjunctiveConstraint,
    )
    if isinstance(constraint, LinearConstraint):
        return [ConjunctiveConstraint.of(constraint)]
    if isinstance(constraint, ConjunctiveConstraint):
        return [constraint]
    if isinstance(constraint, ExistentialConjunctiveConstraint):
        return [constraint.body]
    if isinstance(constraint, DisjunctiveConstraint):
        return list(constraint.disjuncts)
    if isinstance(constraint, DisjunctiveExistentialConstraint):
        return [d.body for d in constraint.disjuncts]
    return None


def pack_constraint(constraint: object) -> "Unit":
    """The packed unit of one constraint: one
    :class:`PackedSystem | None` per disjunct body, or ``None`` when
    the value is not a constraint at all."""
    bodies = bodies_of(constraint)
    if bodies is None:
        return None
    unit: list[PackedSystem | None] = []
    for body in bodies:
        if body.is_syntactically_false():
            continue            # a false disjunct contributes nothing
        unit.append(pack_conjunction(body))
    return unit


class ConstraintMatrix:
    """A batch of constraints packed for one kernel call.

    ``units[i]`` is the packed unit of ``constraints[i]`` (see
    :func:`pack_constraint`); each body keeps its *local* variable
    order.
    """

    __slots__ = ("units",)

    def __init__(self, units: list):
        self.units = units

    @classmethod
    def from_constraints(cls, constraints: Iterable[object]
                         ) -> "ConstraintMatrix":
        return cls([pack_constraint(c) if c is not None else None
                    for c in constraints])

    @classmethod
    def from_units(cls, units: list) -> "ConstraintMatrix":
        return cls(list(units))


def clear_matrix_cache() -> None:
    """Nothing to clear: packing keeps no state between filter calls.
    Importable only because ``bench/common.clear_caches`` calls it and
    ``bench/`` changes in ``benchmark`` PRs alone (ROADMAP item 1 lists
    the call for removal)."""
