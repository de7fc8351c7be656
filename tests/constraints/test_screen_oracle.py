"""The kernel's per-body interval screen against the vectorised numpy
screen it replaced.

The reference below is that screen as it was (``reference_screen``),
with the column-major stacking that fed it (``reference_stacked``) and
the batch classifier that read its flat result
(``reference_classify_matrix``).  On random packed systems — equality
rows, unbounded columns, contradictory single-variable bounds,
zero-width boxes, slivers just inside and just outside the ε margin,
zero-variable bodies — :func:`kernel._screen` must refute exactly the
bodies the reference refutes, and :func:`kernel.classify_matrix` must
return the same verdicts and book the same ``numeric_*`` counters.

numpy is a test-only dependency: the program itself never imports it.
Generated magnitudes stay far below float overflow and bodies at most
four columns wide, under numpy's eight-wide pairwise-summation block,
so both screens add the same floats in the same order.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import kernel, matrix
from repro.constraints.atoms import Relop
from repro.constraints.terms import Variable
from repro.runtime.context import ExecutionStats, QueryContext

np = pytest.importorskip("numpy")

EPSILON = kernel.EPSILON


# -- the reference: the vectorised screen and what fed it ----------------------


def reference_systems(units) -> list:
    """Every supported packed body in the batch, flattened."""
    out = []
    for unit in units:
        if unit:
            out.extend(ps for ps in unit if ps is not None)
    return out


def reference_stacked(units) -> "dict | None":
    """Column-major stacked arrays of every supported body, or ``None``
    without rows."""
    systems = reference_systems(units)
    total = sum(ps.n_rows for ps in systems)
    if total == 0:
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
    return {
        "coeffs": coeffs, "rhs": rhs, "scales": scales,
        "kinds": kinds, "row_sys": row_sys, "offsets": offsets,
        "systems": systems,
    }


def reference_screen(stacked: dict):
    """Vectorized interval screen over the stacked batch: a boolean
    array (one entry per flattened system) marking systems whose
    bounding box already refutes some row by more than an ε margin."""
    coeffs = stacked["coeffs"]
    rhs = stacked["rhs"]
    scales = stacked["scales"]
    kinds = stacked["kinds"]
    row_sys = stacked["row_sys"]
    n_sys = len(stacked["systems"])
    n_rows, width = coeffs.shape
    if width == 0:
        return np.zeros(n_sys, dtype=bool)
    lo = np.full((n_sys, width), -np.inf)
    hi = np.full((n_sys, width), np.inf)
    nonzero = coeffs != 0.0
    single = np.flatnonzero(nonzero.sum(axis=1) == 1)
    if single.size:
        var = np.argmax(nonzero[single], axis=1)
        coeff = coeffs[single, var]
        value = rhs[single] / coeff
        sys_of = row_sys[single]
        positive = coeff > 0.0
        is_eq = kinds[single] == matrix.ROW_EQ
        upper = positive | is_eq
        lower = ~positive | is_eq
        np.minimum.at(hi, (sys_of[upper], var[upper]), value[upper])
        np.maximum.at(lo, (sys_of[lower], var[lower]), value[lower])
    dead = np.zeros(n_sys, dtype=bool)
    # Empty boxes (with an outward ε margin on the comparison).
    with np.errstate(invalid="ignore"):
        gap = lo - hi
        span = np.abs(lo) + np.abs(hi) + 1.0
        dead |= (np.nan_to_num(gap, nan=-np.inf)
                 > EPSILON * np.nan_to_num(span, nan=np.inf)).any(axis=1)
        # Row extrema over the box: minimizing end per coefficient sign.
        lo_rows = lo[row_sys]
        hi_rows = hi[row_sys]
        contrib_min = np.where(
            coeffs > 0.0, coeffs * lo_rows,
            np.where(coeffs < 0.0, coeffs * hi_rows, 0.0))
        row_min = contrib_min.sum(axis=1)
        bad = row_min > rhs + EPSILON * scales
        eq_rows = kinds == matrix.ROW_EQ
        if eq_rows.any():
            contrib_max = np.where(
                coeffs > 0.0, coeffs * hi_rows,
                np.where(coeffs < 0.0, coeffs * lo_rows, 0.0))
            row_max = contrib_max.sum(axis=1)
            bad |= eq_rows & (row_max < rhs - EPSILON * scales)
    np.logical_or.at(dead, row_sys, bad)
    return dead


def reference_classify_system(ps) -> int:
    """The single-body verdict the reference batch fell back to: the
    elastic LP alone, the screen having run over the whole batch."""
    if ps.n_rows == 0:
        if kernel._verified_point(ps, [0.0] * ps.n_vars):
            return kernel.FEASIBLE
        return kernel.UNKNOWN
    solved = kernel._elastic_tableau(*kernel._expand_rows(ps))
    if solved is None:
        return kernel.UNKNOWN
    t_star, x = solved
    if t_star > EPSILON:
        return kernel.INFEASIBLE
    if t_star < -EPSILON and kernel._verified_point(ps, x):
        return kernel.FEASIBLE
    return kernel.UNKNOWN


def reference_classify_matrix(units, stats: ExecutionStats) -> list[int]:
    stacked = reference_stacked(units)
    dead = reference_screen(stacked) if stacked is not None else None
    verdicts: list[int] = []
    flat = 0
    for unit in units:
        if unit is None:
            stats.numeric_fallbacks += 1
            verdicts.append(kernel.UNKNOWN)
            continue
        verdict = kernel.INFEASIBLE
        for ps in unit:
            if ps is None:
                if verdict == kernel.INFEASIBLE:
                    verdict = kernel.UNKNOWN
                continue
            my_flat, flat = flat, flat + 1
            if verdict == kernel.FEASIBLE:
                continue
            if dead is not None and bool(dead[my_flat]):
                body = kernel.INFEASIBLE
            else:
                body = reference_classify_system(ps)
            if body == kernel.FEASIBLE:
                verdict = kernel.FEASIBLE
            elif body == kernel.UNKNOWN and verdict == kernel.INFEASIBLE:
                verdict = kernel.UNKNOWN
        if verdict == kernel.FEASIBLE:
            stats.numeric_accepts += 1
        elif verdict == kernel.INFEASIBLE:
            stats.numeric_rejects += 1
        else:
            stats.numeric_fallbacks += 1
        verdicts.append(verdict)
    return verdicts


# -- packed systems --------------------------------------------------------------

#: Sliver widths in units of the ε margin: inside it, on its edge and
#: outside it.
_SLIVERS = [0.5, 0.99, 1.01, 2.0]

_values = st.builds(lambda n, d: n / d, st.integers(-60, 60),
                    st.sampled_from([1, 2, 3, 8]))


def _pack(width: int, rows: list) -> matrix.PackedSystem:
    variables = tuple(Variable(f"v{j}") for j in range(width))
    ps = matrix.pack_rows(variables, rows, [
        matrix.float_row(coeffs, bound) for _, coeffs, _, bound in rows])
    assert ps is not None
    return ps


@st.composite
def bodies(draw) -> matrix.PackedSystem:
    """One packed body.  Each column is free (unbounded), boxed, boxed
    to zero width, pinned by an equality, or boxed contradictorily —
    by a whole unit or by a sliver around the ε margin; then general
    rows, some placed just inside or outside the margin of the box's
    row extremum.  A zero-variable body has no rows, as the packer
    gives it (a constant row is cleaned to TRUE or FALSE first)."""
    width = draw(st.integers(0, 4))
    rows: list = []
    box: dict[int, tuple[float, float]] = {}
    for j in range(width):
        shape = draw(st.sampled_from(
            ["free", "box", "box", "zero_width", "equality", "equality",
             "contradiction", "sliver", "sliver"]))
        if shape == "free":
            continue
        lo = draw(_values)
        if shape == "equality":
            sign = draw(st.sampled_from([1, -1]))
            rows.append(((j,), (sign,), Relop.EQ, Fraction(sign * lo)))
            box[j] = (lo, lo)
            continue
        if shape == "box":
            hi = lo + draw(st.integers(1, 20))
        elif shape == "zero_width":
            hi = lo
        elif shape == "contradiction":
            hi = lo - draw(st.integers(1, 20))
        else:
            hi = lo - draw(st.sampled_from(_SLIVERS)) * EPSILON \
                * (2 * abs(lo) + 1.0)
        up, down = draw(st.sampled_from([1, 2, 3])), \
            draw(st.sampled_from([1, 2, 3]))
        rows.append(((j,), (up,), Relop.LE, Fraction(hi * up)))
        rows.append(((j,), (-down,), draw(st.sampled_from(
            [Relop.LE, Relop.LT])), Fraction(-lo * down)))
        box[j] = (lo, hi)
    if width:
        for _ in range(draw(st.integers(0, 4))):
            near = bool(box) and draw(st.integers(0, 3)) > 0
            cols = sorted(draw(st.sets(
                st.sampled_from(sorted(box)) if near
                else st.integers(0, width - 1), min_size=1)))
            coeffs = tuple(draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
                           for _ in cols)
            relop = draw(st.sampled_from(
                [Relop.LE, Relop.LT, Relop.EQ, Relop.NE]))
            if near:
                rows.append((tuple(cols), coeffs, relop,
                             _near_extremum(draw, cols, coeffs, relop,
                                            box)))
            else:
                rows.append((tuple(cols), coeffs, relop, Fraction(
                    draw(st.integers(-40, 40)), draw(st.integers(1, 4)))))
    return _pack(width, list(draw(st.permutations(rows))))


def _near_extremum(draw, cols, coeffs, relop, box) -> Fraction:
    """A bound a sliver away from the row's extremum over the box: below
    its minimum (an ``<=`` row the box refutes when the sliver is past
    ε), or above its maximum for an equality."""
    least = most = 0.0
    for j, coeff in zip(cols, coeffs):
        lo, hi = box[j]
        least += coeff * (lo if coeff > 0 else hi)
        most += coeff * (hi if coeff > 0 else lo)
    sliver = draw(st.sampled_from(_SLIVERS)) * EPSILON * max(
        1.0, sum(map(abs, coeffs)), abs(least), abs(most))
    if relop is Relop.EQ and draw(st.booleans()):
        return Fraction(most + sliver)
    return Fraction(least - sliver)


units = st.lists(st.one_of(
    st.none(), st.lists(st.one_of(st.none(), bodies()), max_size=3)),
    max_size=6)


# -- the checks ------------------------------------------------------------------


class TestScreenMatchesTheVectorisedScreen:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(units, st.lists(bodies(), min_size=1, max_size=4)
                     .map(lambda unit: [unit])))
    def test_refutes_the_same_bodies(self, batch):
        systems = reference_systems(batch)
        stacked = reference_stacked(batch)
        dead = reference_screen(stacked) if stacked is not None \
            else np.zeros(len(systems), dtype=bool)
        assert [kernel._screen(ps) for ps in systems] \
            == [bool(flag) for flag in dead]

    @settings(max_examples=300, deadline=None)
    @given(units)
    def test_classify_matrix_verdicts_and_counters(self, batch):
        expected_stats = ExecutionStats()
        expected = reference_classify_matrix(batch, expected_stats)
        ctx = QueryContext(stats=ExecutionStats(), cache=None)
        got = kernel.classify_matrix(
            matrix.ConstraintMatrix.from_units(batch), ctx)
        assert got == expected
        assert (ctx.stats.numeric_accepts, ctx.stats.numeric_rejects,
                ctx.stats.numeric_fallbacks) == (
            expected_stats.numeric_accepts,
            expected_stats.numeric_rejects,
            expected_stats.numeric_fallbacks)

    def test_generated_bodies_reach_both_screen_outcomes(self):
        """The slivers straddle the margin: some generated bodies are
        refuted by the box alone, some are not."""
        seen = set()

        @settings(max_examples=200, deadline=None, database=None)
        @given(bodies())
        def collect(ps):
            seen.add(kernel._screen(ps))

        collect()
        assert seen == {True, False}
