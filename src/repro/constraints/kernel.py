"""Batched numeric kernels: float prefilter, exact-rational fallback.

The exact simplex (:mod:`repro.constraints.simplex`) answers every
satisfiability question in fraction-free integer arithmetic —
unconditionally correct, and the dominant cost of dense workloads.
This kernel runs a *float* screen in front of it over packed systems
(:mod:`repro.constraints.matrix`), one body at a time, and returns
three-valued verdicts:

* :data:`INFEASIBLE` — the system is empty **under the documented
  ε-assumption**: the interval screen shows a row unachievable on the
  system's bounding box by more than an ε margin, or an elastic LP
  relaxation has minimum violation ``t* > ε`` after per-row
  normalization.  Strict atoms are screened weakened and disequalities
  are dropped, both of which only *enlarge* the point set, so a reject
  of the relaxation is a reject of the system.
* :data:`FEASIBLE` — airtight, no ε-assumption: the LP produced a
  float point with margin ``t* < -ε``, and that point — converted
  exactly to a rational (``float.as_integer_ratio``) — was verified
  against **every** exact integer row (strict, disequality, equality
  included) in integer arithmetic.  A verdict of feasible is a
  constructive witness.
* :data:`UNKNOWN` — anything in the ε band, any packing failure, any
  pivot-cap hit: the caller falls back to the exact solver.  The
  kernel never guesses.

The float LP is an *elastic* program — minimize ``t`` subject to
``a_i . x - s_i t <= b_i`` (equalities as opposing row pairs),
``t >= -1`` — whose optimum is the normalized infeasibility of the
system: negative iff a point satisfies every row with slack.  It is
solved by one backend, a dense tableau simplex in pure Python (slack
basis is feasible by construction, so no Phase I; Dantzig entering
rule with a pivot cap that degrades to :data:`UNKNOWN`).  Everything
here is plain Python floats: the kernel runs on every install, and
``QueryContext(numeric=False)`` (``--no-numeric``) is the exact-only
configuration.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints import matrix
from repro.constraints.atoms import Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.runtime import context as context_mod

#: Relative feasibility margin.  Verdicts inside ``|t*| <= EPSILON``
#: fall through to the exact solver; rejects assume float LP optima are
#: accurate to better than this after per-row scaling.
EPSILON = 1e-7

#: Float-simplex pivot cap; hitting it yields :data:`UNKNOWN`.
MAX_PIVOTS = 500

#: Atom-count floor for :func:`quick_satisfiable` — tiny systems are
#: cheaper to solve exactly than to pack, and several calibration
#: tests depend on the exact solver running for them.
MIN_ATOMS = 5

#: Guard checkpoint cadence in :func:`classify_matrix` (units).
_CHECK_EVERY = 32

FEASIBLE = 1
UNKNOWN = 0
INFEASIBLE = -1

_TOL = 1e-9

_INF = float("inf")


# ---------------------------------------------------------------------------
# Elastic float LP
# ---------------------------------------------------------------------------


def _expand_rows(ps: matrix.PackedSystem
                 ) -> tuple[list[list[float]], list[float], list[float]]:
    """LE-only rows of the elastic relaxation: equalities become
    opposing row pairs."""
    rows: list[list[float]] = []
    rhs: list[float] = []
    scales: list[float] = []
    for i in range(ps.n_rows):
        rows.append(ps.rows[i])
        rhs.append(ps.rhs[i])
        scales.append(ps.scales[i])
        if ps.kinds[i] == matrix.ROW_EQ:
            rows.append([-c for c in ps.rows[i]])
            rhs.append(-ps.rhs[i])
            scales.append(ps.scales[i])
    return rows, rhs, scales


def _elastic_tableau(rows: Sequence[Sequence[float]],
                     rhs: Sequence[float],
                     scales: Sequence[float]
                     ) -> tuple[float, list[float]] | None:
    """Pure-Python dense-tableau solve of the elastic LP.

    Returns ``(t*, x)`` or ``None`` when the pivot cap is hit.  Via
    ``t = t0 - tau`` (``t0`` large enough that the slack basis is
    feasible with room to spare) the program becomes *maximize* ``tau``
    over ``a_i . x + s_i tau <= b_i + s_i t0``, ``tau <= t0 + 1`` —
    the cap row bounds the objective, so the simplex cannot diverge.
    """
    m0 = len(rows)
    nvars = len(rows[0]) if m0 else 0
    t0 = max((-b) / s for b, s in zip(rhs, scales)) if m0 else 0.0
    t0 = max(t0, 0.0) + 1.0
    n = 2 * nvars + 1          # x = p - q free split, then tau
    m = m0 + 1                 # elastic rows + the tau cap row
    width = n + m + 1          # structural | slack | rhs
    tableau: list[list[float]] = []
    for i in range(m0):
        row = [0.0] * width
        a = rows[i]
        for j in range(nvars):
            row[j] = a[j]
            row[nvars + j] = -a[j]
        row[2 * nvars] = scales[i]
        row[n + i] = 1.0
        row[-1] = rhs[i] + scales[i] * t0
        tableau.append(row)
    cap = [0.0] * width
    cap[2 * nvars] = 1.0
    cap[n + m0] = 1.0
    cap[-1] = t0 + 1.0
    tableau.append(cap)
    objective = [0.0] * width
    objective[2 * nvars] = 1.0
    basis = list(range(n, n + m))
    for _ in range(MAX_PIVOTS):
        enter, best = -1, _TOL
        for j in range(n + m):
            if objective[j] > best:
                best, enter = objective[j], j
        if enter < 0:
            break
        leave, ratio = -1, 0.0
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > _TOL:
                r = tableau[i][-1] / coeff
                if leave < 0 or r < ratio:
                    leave, ratio = i, r
        if leave < 0:          # unbounded: impossible past the cap row,
            return None        # so numerically suspect — stay exact
        pivot_row = tableau[leave]
        inv = 1.0 / pivot_row[enter]
        for j in range(width):
            pivot_row[j] *= inv
        for i in range(m):
            if i == leave:
                continue
            factor = tableau[i][enter]
            if factor != 0.0:
                row = tableau[i]
                for j in range(width):
                    row[j] -= factor * pivot_row[j]
        factor = objective[enter]
        if factor != 0.0:
            for j in range(width):
                objective[j] -= factor * pivot_row[j]
        basis[leave] = enter
    else:
        return None
    values = [0.0] * (n + m)
    for i, bv in enumerate(basis):
        values[bv] = tableau[i][-1]
    t_star = t0 - (-objective[-1])
    x = [values[j] - values[nvars + j] for j in range(nvars)]
    return t_star, x


# ---------------------------------------------------------------------------
# Single-system classification
# ---------------------------------------------------------------------------


def _verified_point(ps: matrix.PackedSystem,
                    x: Sequence[float]) -> bool:
    """Exact-rational membership of the float witness, row by row over
    the system's exact integer rows: a float is exactly the rational
    ``n / 2**k`` (:meth:`float.as_integer_ratio`), so over the point's
    common power-of-two denominator ``d`` each row value is the integer
    ``sum(a_j * x_j * d)`` and ``value relop p/q`` is ``value * q relop
    p * d`` in integers — acceptance carries no float assumption."""
    ratios = [val.as_integer_ratio() for val in x]
    scale = max((den for _, den in ratios), default=1)
    point = [num * (scale // den) for num, den in ratios]
    for cols, coeffs, relop, bound in ps.exact:
        value = 0
        for j, coeff in zip(cols, coeffs):
            value += coeff * point[j]
        if not relop.holds(value * bound.denominator,
                           bound.numerator * scale):
            return False
    return True


def _screen(ps: matrix.PackedSystem) -> bool:
    """Interval screen of one packed body: does its bounding box — the
    bounds its single-variable rows give — already refute some row by
    more than an ε margin?  An empty box (``lo - hi`` beyond ε of the
    bounds' magnitude), a row whose minimum over the box exceeds its
    bound, or an equality row whose maximum falls short of it.  Mirrors
    the exact prefilter in :mod:`repro.constraints.bounds` in float
    arithmetic, in two passes over the body's rows."""
    width = ps.n_vars
    lo = [-_INF] * width
    hi = [_INF] * width
    rows, kinds = ps.rows, ps.kinds
    for row, value, kind in zip(rows, ps.rhs, kinds):
        var = -1
        for j, coeff in enumerate(row):
            if coeff != 0.0:
                if var >= 0:
                    break
                var = j
        else:
            if var < 0:
                continue
            coeff = row[var]
            bound = value / coeff
            if (coeff > 0.0 or kind == matrix.ROW_EQ) and bound < hi[var]:
                hi[var] = bound
            if (coeff < 0.0 or kind == matrix.ROW_EQ) and bound > lo[var]:
                lo[var] = bound
    for low, high in zip(lo, hi):
        if low - high > EPSILON * (abs(low) + abs(high) + 1.0):
            return True
    for row, value, kind, scale in zip(rows, ps.rhs, kinds, ps.scales):
        least = 0.0
        for coeff, low, high in zip(row, lo, hi):
            if coeff > 0.0:
                least += coeff * low
            elif coeff < 0.0:
                least += coeff * high
        if least > value + EPSILON * scale:
            return True
        if kind == matrix.ROW_EQ:
            most = 0.0
            for coeff, low, high in zip(row, lo, hi):
                if coeff > 0.0:
                    most += coeff * high
                elif coeff < 0.0:
                    most += coeff * low
            if most < value - EPSILON * scale:
                return True
    return False


def classify_system(ps: matrix.PackedSystem) -> int:
    """Three-valued verdict for one packed conjunctive body."""
    if ps.n_rows == 0:
        # Only trivial/disequality atoms: try the origin exactly.
        if _verified_point(ps, [0.0] * ps.n_vars):
            return FEASIBLE
        return UNKNOWN
    if _screen(ps):
        return INFEASIBLE
    solved = _elastic_tableau(*_expand_rows(ps))
    if solved is None:
        return UNKNOWN
    t_star, x = solved
    if t_star > EPSILON:
        return INFEASIBLE
    if t_star < -EPSILON and _verified_point(ps, x):
        return FEASIBLE
    return UNKNOWN


def quick_satisfiable(conj: ConjunctiveConstraint,
                      ctx=None) -> bool | None:
    """Numeric satisfiability screen for one conjunction: ``True`` /
    ``False`` when the kernel can decide, ``None`` to stay exact.

    Deliberately gated: inactive contexts, systems below
    :data:`MIN_ATOMS`, and systems with equality atoms (which the
    elastic accept side can never decide) skip the kernel entirely
    without booking a fallback — the exact path was the right call,
    not a degradation.
    """
    resolved = context_mod.resolve(ctx)
    if not resolved.numeric:
        return None
    if len(conj) < MIN_ATOMS \
            or any(row[2] is Relop.EQ for row in conj.rows):
        return None
    guard = resolved.guard
    if guard is not None:
        guard.checkpoint("numeric")
    ps = matrix.pack_conjunction(conj)
    if ps is None:
        resolved.stats.numeric_fallbacks += 1
        return None
    verdict = classify_system(ps)
    if verdict == FEASIBLE:
        resolved.stats.numeric_accepts += 1
        return True
    if verdict == INFEASIBLE:
        resolved.stats.numeric_rejects += 1
        return False
    resolved.stats.numeric_fallbacks += 1
    return None


# ---------------------------------------------------------------------------
# Batched classification
# ---------------------------------------------------------------------------


def classify_matrix(cm: matrix.ConstraintMatrix,
                    ctx=None) -> list[int]:
    """Per-constraint verdicts for a packed batch — one kernel call.

    A constraint is :data:`FEASIBLE` when some disjunct body is,
    :data:`INFEASIBLE` when every body is (vacuously for the empty
    disjunction), :data:`UNKNOWN` otherwise; each body is classified by
    :func:`classify_system` until one is feasible.  Books one
    ``numeric_accepts`` / ``numeric_rejects`` / ``numeric_fallbacks``
    per constraint on the resolved context's stats.
    """
    resolved = context_mod.resolve(ctx)
    guard = resolved.guard
    stats = resolved.stats
    verdicts: list[int] = []
    for pos, unit in enumerate(cm.units):
        if guard is not None and pos % _CHECK_EVERY == 0:
            guard.checkpoint("numeric")
        if unit is None:
            stats.numeric_fallbacks += 1
            verdicts.append(UNKNOWN)
            continue
        verdict = INFEASIBLE
        for ps in unit:
            body = UNKNOWN if ps is None else classify_system(ps)
            if body == FEASIBLE:
                verdict = FEASIBLE
                break
            if body == UNKNOWN:
                verdict = UNKNOWN
        if verdict == FEASIBLE:
            stats.numeric_accepts += 1
        elif verdict == INFEASIBLE:
            stats.numeric_rejects += 1
        else:
            stats.numeric_fallbacks += 1
        verdicts.append(verdict)
    return verdicts
