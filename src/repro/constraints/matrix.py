"""Column-major float64 packing of constraint systems.

The exact engine stores constraints as trees of `Fraction` atoms — the
right representation for canonical forms (Section 3.1: logical identity
must not depend on rounding), and the wrong one for bulk arithmetic.
This module is the bridge: it packs conjunctive bodies into flat float
coefficient matrices the numeric kernel (:mod:`repro.constraints.
kernel`) consumes in batch, one packing per system instead of one
`Fraction` tree walk per solver probe.

Two layers:

* :class:`PackedSystem` — one conjunctive body as float rows over the
  body's own (system-local) variable order, with its exact integer rows
  kept alongside for the kernel's rational verification of accepts —
  :func:`pack_rows` builds every one of them, whether from a
  conjunction's atoms (:func:`pack_conjunction`) or straight from a
  formula template's stored rows (:mod:`repro.core.formulas`);
* :class:`ConstraintMatrix` — a *batch* of constraints (any family),
  flattened to their disjunct bodies, with column-major stacked numpy
  arrays (:meth:`ConstraintMatrix.stacked`) for the vectorized
  interval screen.

Packing is *conservative*: any atom whose coefficients do not convert
to finite floats (overflowing numerators, for instance) marks the body
unsupported (``None``), and the kernel routes the system to the exact
solver.  Disequalities are excluded from the float rows (they carve
measure-zero sets the LP cannot see) but kept in the exact rows, so
an accepted sample point is still verified against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.terms import Variable
from repro.runtime import numeric

#: Row kinds in a packed system.
ROW_LE = 0   # a . x <= b   (strict atoms are packed weakened; the
#              exact verification restores strictness)
ROW_EQ = 1   # a . x  = b

#: A packed *unit*: the packed bodies of one constraint (one entry per
#: disjunct; ``None`` entries are unsupported bodies), or ``None`` when
#: the whole constraint cannot be packed.
Unit = "list[PackedSystem | None] | None"


#: One exact row of a packed system: the ascending column indices of
#: its variables in the system's variable order, their coprime ``int``
#: coefficients, its relop (``=``, ``<=``, ``<`` or ``!=``) and its
#: rational bound — an atom's normalized row, indexed by column.
ExactRow = tuple[tuple[int, ...], tuple[int, ...], Relop, Fraction]


class PackedSystem:
    """One conjunctive body as float64 rows over local variables.

    ``rows[i][j]`` is the coefficient of ``variables[j]`` in row ``i``;
    ``kinds[i]`` is :data:`ROW_LE` or :data:`ROW_EQ`; ``scales[i]`` is
    the row's normalization ``max(1, sum |a_ij|, |b_i|)`` used by the
    kernel's elastic margins.  ``exact`` is the body's exact integer
    rows (:data:`ExactRow`, every atom including strict and disequality
    forms) — the ground truth accepts are verified against.
    """

    __slots__ = ("variables", "rows", "rhs", "kinds", "scales",
                 "has_equality", "has_strict", "has_disequality",
                 "exact")

    def __init__(self, variables: tuple[Variable, ...],
                 rows: list[list[float]], rhs: list[float],
                 kinds: list[int], scales: list[float],
                 has_equality: bool, has_strict: bool,
                 has_disequality: bool,
                 exact: tuple[ExactRow, ...]):
        self.variables = variables
        self.rows = rows
        self.rhs = rhs
        self.kinds = kinds
        self.scales = scales
        self.has_equality = has_equality
        self.has_strict = has_strict
        self.has_disequality = has_disequality
        self.exact = exact

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


def pack_rows(variables: tuple[Variable, ...],
              entries: list[tuple[ExactRow, FloatRow]]
              ) -> PackedSystem | None:
    """The row packer: one conjunctive body given as exact integer rows
    over ``variables`` (column indices into it), each with its
    :func:`float_row`, in conjunction order.

    Trivially-true rows (no columns) are dropped; a trivially-false one,
    or an inequality or equality whose values do not convert to finite
    floats, gives ``None`` — the body then stays exact-only."""
    width = len(variables)
    rows: list[list[float]] = []
    rhs: list[float] = []
    kinds: list[int] = []
    scales: list[float] = []
    kept: list = []
    has_eq = has_strict = has_ne = False
    for exact, converted in entries:
        cols, _, relop, bound = exact
        if not cols:
            if not relop.holds(0, bound):
                return None     # syntactically false: exact path
            continue
        kept.append(exact)
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
                        has_eq, has_strict, has_ne, tuple(kept))


def pack_conjunction(conj: ConjunctiveConstraint
                     ) -> "PackedSystem | None":
    """Pack one conjunctive body through :func:`pack_rows`; ``None``
    when any coefficient does not convert to a finite float (the body
    then stays exact-only)."""
    variables = tuple(sorted(conj.variables, key=lambda v: v.name))
    index = {v: j for j, v in enumerate(variables)}
    entries = []
    for atom in conj.atoms:
        terms = atom.terms
        coeffs = tuple(coeff for _, coeff in terms)
        entries.append(((tuple(index[var] for var, _ in terms), coeffs,
                         atom.relop, atom.bound),
                        float_row(coeffs, atom.bound)))
    return pack_rows(variables, entries)


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
        return [d.body if isinstance(d, ExistentialConjunctiveConstraint)
                else d for d in constraint.disjuncts]
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
    :func:`pack_constraint`).  :meth:`stacked` exposes the flattened
    bodies as column-major float64 arrays for the vectorized interval
    screen; systems keep their *local* variable order, so the stacked
    width is the widest single system, not the union of the batch.
    """

    __slots__ = ("units", "_stacked")

    def __init__(self, units: list):
        self.units = units
        self._stacked: object = _UNSET

    @classmethod
    def from_constraints(cls, constraints: Iterable[object]
                         ) -> "ConstraintMatrix":
        return cls([pack_constraint(c) if c is not None else None
                    for c in constraints])

    @classmethod
    def from_units(cls, units: list) -> "ConstraintMatrix":
        return cls(list(units))

    def systems(self) -> "list[PackedSystem]":
        """Every supported packed body in the batch, flattened."""
        out: list[PackedSystem] = []
        for unit in self.units:
            if unit:
                out.extend(ps for ps in unit if ps is not None)
        return out

    def stacked(self) -> "dict | None":
        """Column-major stacked arrays of every supported body, or
        ``None`` without numpy / without rows.

        Returns ``coeffs`` (total_rows x width, Fortran order), ``rhs``,
        ``scales``, ``kinds``, ``row_sys`` (row -> flattened system
        ordinal) and ``offsets`` (system ordinal -> first row), aligned
        with :meth:`systems`.
        """
        if self._stacked is not _UNSET:
            return self._stacked  # type: ignore[return-value]
        np = numeric.get_numpy()
        systems = self.systems()
        total = sum(ps.n_rows for ps in systems)
        if np is None or total == 0:
            self._stacked = None
            return None
        width = max((ps.n_vars for ps in systems), default=0)
        coeffs = np.zeros((total, width), dtype=np.float64, order="F")
        rhs = np.empty(total, dtype=np.float64)
        scales = np.empty(total, dtype=np.float64)
        kinds = np.empty(total, dtype=np.int8)
        row_sys = np.empty(total, dtype=np.intp)
        offsets = np.empty(len(systems) + 1, dtype=np.intp)
        at = 0
        for s, ps in enumerate(systems):
            offsets[s] = at
            for i in range(ps.n_rows):
                coeffs[at, :ps.n_vars] = ps.rows[i]
                rhs[at] = ps.rhs[i]
                scales[at] = ps.scales[i]
                kinds[at] = ps.kinds[i]
                row_sys[at] = s
                at += 1
        offsets[len(systems)] = at
        self._stacked = {
            "coeffs": coeffs, "rhs": rhs, "scales": scales,
            "kinds": kinds, "row_sys": row_sys, "offsets": offsets,
            "systems": systems,
        }
        return self._stacked


_UNSET = object()


def clear_matrix_cache() -> None:
    """Nothing to clear: packing keeps no state between filter calls.
    Importable only because ``bench/common.clear_caches`` calls it and
    ``bench/`` changes in ``benchmark`` PRs alone (ROADMAP item 1 lists
    the call for removal)."""
