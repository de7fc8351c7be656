"""Economical filtering: bounding-box pre-tests for constraint joins.

The paper's related-work section criticizes spatial DBMS extensions for
"lacking global economical filtering and deep optimization"; the
standard constraint-database answer (cf. [BJM93]) is a two-phase
filter-and-refine scheme: cheap interval-box tests prune candidate
pairs before the exact LP-based test runs.  This module provides:

* :func:`interval_hull` — the exact per-dimension bounding box of a CST
  object (computed once, by 2n LPs);
* :func:`overlap_join` — the exact pairwise overlap join with and
  without the prefilter (experiment E14 measures the difference).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

from repro.constraints.cst_object import CSTObject
from repro.errors import DimensionError

#: A per-dimension closed interval; None marks an unbounded side.
Interval = tuple[Fraction | None, Fraction | None]


def interval_hull(obj: CSTObject) -> list[Interval]:
    """The exact bounding box (see :meth:`CSTObject.bounding_box`)."""
    return obj.bounding_box()


def boxes_overlap(a: Sequence[Interval], b: Sequence[Interval]) -> bool:
    """Interval-box intersection test (unbounded sides always pass)."""
    if len(a) != len(b):
        raise DimensionError("boxes of different dimension")
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if ahi is not None and blo is not None and ahi < blo:
            return False
        if bhi is not None and alo is not None and bhi < alo:
            return False
    return True


@dataclass(frozen=True)
class JoinStats:
    pairs_considered: int
    exact_tests: int
    matches: int


def overlap_join(items: Sequence[tuple[Hashable, CSTObject]],
                 prefilter: bool = True
                 ) -> tuple[list[tuple[Hashable, Hashable]], JoinStats]:
    """All unordered pairs of exactly-overlapping objects.

    With ``prefilter`` the exact (LP) test only runs on pairs whose
    bounding boxes overlap; without it, on every pair.  Returns the
    matches plus counters showing how much work the filter saved.
    """
    boxes = [interval_hull(obj) for _, obj in items] if prefilter \
        else None
    matches: list[tuple[Hashable, Hashable]] = []
    pairs = 0
    exact = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            pairs += 1
            if prefilter and not boxes_overlap(boxes[i], boxes[j]):
                continue
            exact += 1
            if items[i][1].overlaps(items[j][1]):
                matches.append((items[i][0], items[j][0]))
    return matches, JoinStats(pairs, exact, len(matches))
