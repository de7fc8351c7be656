"""Batch-wise predicate evaluation over the numeric kernel.

The row-wise test calls the predicate once per row, and each
constraint predicate call walks the exact solver.  This module evaluates whole filters with one
kernel call per chunk instead, whenever the predicate exposes a
batch packer (:attr:`~repro.sqlc.algebra.CstPredicate.units`):

1. non-constraint conjuncts *preceding* the packable one run
   row-wise first (preserving ``And``'s short-circuit semantics —
   a row rejected early never reaches the constraint, exactly as in
   the row-wise evaluator);
2. surviving rows are packed by one ``units`` call into a
   :class:`~repro.constraints.matrix.ConstraintMatrix`, and classified
   by one :func:`~repro.constraints.kernel.classify_matrix` call;
3. each row the kernel could not decide is tested by the *original*
   predicate, under a derived context with numeric off — exact
   semantics, exact error behaviour;
4. conjuncts *after* the packable one run row-wise on survivors.

Output rows and their order are identical to the row-wise test's by
construction: the kernel only replaces individual boolean answers,
never the iteration order, and its accepts/rejects are verified /
ε-sound (see :mod:`repro.constraints.kernel`).  When the context's
numeric option is off every row takes the row-wise test.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints import kernel, matrix
from repro.runtime import context as context_mod
from repro.sqlc.algebra import And, CstPredicate, Predicate

#: Below this many rows the batch machinery costs more than it saves.
MIN_BATCH = 8


def _split(predicate: Predicate
           ) -> "tuple[tuple, CstPredicate, tuple] | None":
    """``(pre, packable, post)`` decomposition of the predicate, or
    ``None`` when no conjunct carries a batch packer."""
    if isinstance(predicate, CstPredicate):
        if predicate.units is not None:
            return (), predicate, ()
        return None
    if isinstance(predicate, And):
        for i, part in enumerate(predicate.parts):
            if isinstance(part, CstPredicate) and part.units is not None:
                return (predicate.parts[:i], part,
                        predicate.parts[i + 1:])
    return None


def filter_rows(columns: Sequence[str], rows: list, predicate,
                ctx=None) -> list:
    """The rows satisfying ``predicate`` (a row-dict test), in input
    order, with packable constraint predicates batched through the
    numeric kernel."""
    resolved = context_mod.resolve(ctx)
    cols = tuple(columns)
    plan = None
    if resolved.numeric and len(rows) >= MIN_BATCH:
        plan = _split(predicate)
    if plan is None:
        return [row for row in rows
                if predicate(dict(zip(cols, row)))]
    pre, cst, post = plan
    position = {c: i for i, c in enumerate(cols)}
    cst_idx = [position[c] for c in cst.columns]

    # Row dicts only for the row-wise conjuncts around the packed one.
    dicts = [dict(zip(cols, row)) for row in rows] if pre or post else []
    alive = [i for i in range(len(rows))
             if all(p(dicts[i]) for p in pre)]

    units = cst.units([tuple(rows[i][j] for j in cst_idx)
                       for i in alive])
    cm = matrix.ConstraintMatrix.from_units(units)
    verdicts = kernel.classify_matrix(cm, resolved)

    keep: dict[int, bool] = {}
    unknown: list[int] = []
    for i, verdict in zip(alive, verdicts):
        if verdict == kernel.FEASIBLE:
            keep[i] = True
        elif verdict == kernel.INFEASIBLE:
            keep[i] = False
        else:
            unknown.append(i)

    if unknown:
        # Exact fallback: the original constraint conjunct, row-wise,
        # with numeric off so nested satisfiability checks do not
        # re-enter the kernel they just fell out of.
        with resolved.derive(numeric=False).activate():
            for i in unknown:
                keep[i] = cst(dict(zip(cols, rows[i])))

    return [rows[i] for i in alive
            if keep[i] and all(p(dicts[i]) for p in post)]
