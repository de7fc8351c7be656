"""Cheap interval bounds — the geometric prefilter for the solver.

"The evaluation of geometric queries" literature splits constraint
processing into a cheap geometric phase and an exact symbolic phase;
this module is the cheap phase.  From the *single-column* rows of a
conjunction it derives per-column lower/upper bounds in O(rows),
producing an axis-aligned bounding box that **over-approximates** the
conjunction's point set.  Two sound refutations follow:

* a conjunction whose multi-column rows cannot hold anywhere on the
  box is unsatisfiable (:func:`refutes`);
* two constraints whose boxes are disjoint on a shared variable have an
  empty intersection (:func:`boxes_disjoint`) — the join prefilter.

Because the box is an over-approximation, the prefilter can only prove
*emptiness*; it never claims satisfiability, so the exact simplex
remains the sole source of positive answers and the paper's semantics
are preserved verbatim.

Unlike :meth:`CSTObject.bounding_box
<repro.constraints.cst_object.CSTObject.bounding_box>` (the *exact*
interval hull, one LP per dimension end), nothing here ever calls the
simplex — this is the filter in front of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from repro.constraints.atoms import ExactRow, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.terms import Variable
from repro.runtime import context as context_mod

#: A half-open-aware interval: ``(lo, lo_open, hi, hi_open)``; ``None``
#: endpoints mark unboundedness.
Interval = tuple[Fraction | None, bool, Fraction | None, bool]

#: The whole real line.
FULL: Interval = (None, False, None, False)


# ---------------------------------------------------------------------------
# Box derivation
# ---------------------------------------------------------------------------


def _tighten(interval: Interval, relop: Relop, value: Fraction
             ) -> Interval | None:
    """Intersect ``interval`` with ``var relop value``; None = empty."""
    lo, lo_open, hi, hi_open = interval
    if relop in (Relop.EQ, Relop.LE, Relop.LT):
        strict = relop is Relop.LT
        if hi is None or value < hi or (value == hi and strict
                                        and not hi_open):
            hi, hi_open = value, strict
    if relop in (Relop.EQ, Relop.GE, Relop.GT):
        strict = relop is Relop.GT
        if lo is None or value > lo or (value == lo and strict
                                        and not lo_open):
            lo, lo_open = value, strict
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_open or hi_open)):
            return None
    return (lo, lo_open, hi, hi_open)


def box_of(conj: ConjunctiveConstraint
           ) -> dict[Variable, Interval] | None:
    """Per-variable bounds from the single-variable, non-``!=`` rows of
    ``conj``.

    Returns ``None`` when the bounds alone are contradictory (the box —
    and hence the point set — is empty).  Multi-variable rows are
    ignored here; :func:`refutes` evaluates them *over* the box.
    """
    box: dict[Variable, Interval] = {}
    for cols, coeffs, relop, bound in conj.rows:
        if relop is Relop.NE:
            continue
        if not cols:
            if not relop.holds(Fraction(0), bound):
                return None
            continue
        if len(cols) != 1:
            continue
        var, (coeff,) = conj.columns[cols[0]], coeffs
        tightened = _tighten(box.get(var, FULL),
                             relop if coeff > 0 else relop.flipped,
                             bound / coeff)
        if tightened is None:
            return None
        box[var] = tightened
    return box


# ---------------------------------------------------------------------------
# Interval evaluation of general rows over a box
# ---------------------------------------------------------------------------


def _extremum(terms: Iterable[tuple[Variable, int]],
              box: Mapping[Variable, Interval], lower: bool
              ) -> tuple[Fraction | None, bool]:
    """(inf, attained) or (sup, attained) of ``sum c_i * x_i`` over the
    box; ``None`` marks an unbounded extremum."""
    total = Fraction(0)
    attained = True
    for var, coeff in terms:
        lo, lo_open, hi, hi_open = box.get(var, FULL)
        # The minimizing end for positive coefficients is ``lo``; signs
        # and the min/max direction flip which end is used.
        if (coeff > 0) == lower:
            end, open_ = lo, lo_open
        else:
            end, open_ = hi, hi_open
        if end is None:
            return None, False
        total += coeff * end
        attained = attained and not open_
    return total, attained


def _impossible(columns: tuple[Variable, ...], row: ExactRow,
                box: Mapping[Variable, Interval]) -> bool:
    """Can ``row`` over ``columns`` hold nowhere on ``box``?  (Sound,
    not complete.)"""
    cols, coeffs, relop, bound = row
    terms = [(columns[j], coeff) for j, coeff in zip(cols, coeffs)]
    inf, inf_att = _extremum(terms, box, lower=True)
    if relop is Relop.LE:
        return inf is not None and (inf > bound
                                    or (inf == bound and not inf_att))
    if relop is Relop.LT:
        return inf is not None and inf >= bound
    sup, sup_att = _extremum(terms, box, lower=False)
    if relop is Relop.EQ:
        if inf is not None and (inf > bound
                                or (inf == bound and not inf_att)):
            return True
        return sup is not None and (sup < bound
                                    or (sup == bound and not sup_att))
    # ``!=``: only refutable when the box pins the row to the bound.
    return (inf is not None and sup is not None
            and inf == sup == bound and inf_att and sup_att)


def refutes(conj: ConjunctiveConstraint, ctx=None) -> bool:
    """True when the box proves ``conj`` unsatisfiable (sound; a False
    answer says nothing).  Checks are booked on the context's
    per-execution stats (once — workers merge generically)."""
    stats_acct = context_mod.resolve(ctx).stats
    stats_acct.box_checks += 1
    box = box_of(conj)
    if box is None or any(len(row[0]) > 1
                          and _impossible(conj.columns, row, box)
                          for row in conj.rows):
        stats_acct.box_refutations += 1
        return True
    return False


# ---------------------------------------------------------------------------
# Boxes of whole constraints, and disjointness
# ---------------------------------------------------------------------------


def _hull(a: Interval, b: Interval) -> Interval:
    alo, alo_open, ahi, ahi_open = a
    blo, blo_open, bhi, bhi_open = b
    if alo is None or blo is None:
        lo, lo_open = None, False
    elif alo == blo:
        lo, lo_open = alo, alo_open and blo_open
    else:
        lo, lo_open = (alo, alo_open) if alo < blo else (blo, blo_open)
    if ahi is None or bhi is None:
        hi, hi_open = None, False
    elif ahi == bhi:
        hi, hi_open = ahi, ahi_open and bhi_open
    else:
        hi, hi_open = (ahi, ahi_open) if ahi > bhi else (bhi, bhi_open)
    return (lo, lo_open, hi, hi_open)


def constraint_box(constraint) -> dict[Variable, Interval] | None:
    """Bounding box of any constraint-family member, from syntax alone.

    Disjunctions take the hull of their disjunct boxes; existential
    bodies are used as-is (a box over free *and* quantified variables
    over-approximates the projection onto the free ones).  ``None``
    means every disjunct's box was already empty.
    """
    from repro.constraints.matrix import bodies_of
    bodies = bodies_of(constraint)
    if bodies is None:
        raise TypeError(f"not a constraint: {constraint!r}")
    hull: dict[Variable, Interval] | None = None
    for box in map(box_of, bodies):
        if box is None:
            continue
        if hull is None:
            hull = dict(box)
            continue
        # A variable missing from either box is unbounded there, so its
        # hull entry is the full line — simply drop it.
        for var in list(hull):
            if var in box:
                hull[var] = _hull(hull[var], box[var])
            else:
                del hull[var]
    return hull


def intervals_disjoint(a: Interval, b: Interval) -> bool:
    alo, alo_open, ahi, ahi_open = a
    blo, blo_open, bhi, bhi_open = b
    if ahi is not None and blo is not None:
        if ahi < blo or (ahi == blo and (ahi_open or blo_open)):
            return True
    if bhi is not None and alo is not None:
        if bhi < alo or (bhi == alo and (bhi_open or alo_open)):
            return True
    return False


def boxes_disjoint(a: Mapping[Variable, Interval] | None,
                   b: Mapping[Variable, Interval] | None,
                   ctx=None) -> bool:
    """True when the two point sets provably cannot intersect: either
    box is empty, or they are separated along some shared variable."""
    stats_acct = context_mod.resolve(ctx).stats
    stats_acct.box_checks += 1
    if a is None or b is None:
        stats_acct.box_refutations += 1
        return True
    for var, interval in a.items():
        other = b.get(var)
        if other is not None and intervals_disjoint(interval, other):
            stats_acct.box_refutations += 1
            return True
    return False
