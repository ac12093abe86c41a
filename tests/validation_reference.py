"""Reference scans for differential tests of :mod:`dpda.validation`.

These are the validator's earlier per-cell paths for the star facts: C0
builds each column's list of band cells at every in-band row, C1 counts the
first band's stars cell by cell, and the two count diagnostics walk the
grid.  ``dpda.validation.validate`` derives the same four fields from one
star bitmask per row; its report must equal these on every array.
"""

from __future__ import annotations

from dpda import Dpda
from dpda.validation import ConditionCheck

_OK = ConditionCheck(True)


def c0(p: Dpda) -> ConditionCheck:
    for c in range(p.k):
        for h in range(p.f):
            cells = [p.grid[band * p.f + h][c] for band in range(p.lp)]
            if any(e is None for e in cells):
                for band, e in enumerate(cells):
                    if e is not None:
                        return ConditionCheck(False, (band * p.f + h, c))
    return _OK


def c1(p: Dpda) -> ConditionCheck:
    for c in range(p.k):
        stars = sum(1 for h in range(p.f) if p.grid[h][c] is None)
        if stars != p.z:
            return ConditionCheck(False, (c, stars))
    return _OK


def row_integer_counts(p: Dpda) -> tuple[int, ...]:
    return tuple(sum(1 for e in row if e is not None) for row in p.grid)


def column_star_counts(p: Dpda) -> tuple[int, ...]:
    return tuple(sum(1 for row in p.grid if row[c] is None) for c in range(p.k))


def star_fields(p: Dpda) -> dict:
    """The four report fields derived from the star masks, by the old scans."""
    return {
        "c0": c0(p),
        "c1": c1(p),
        "row_integer_counts": row_integer_counts(p),
        "column_star_counts": column_star_counts(p),
    }
