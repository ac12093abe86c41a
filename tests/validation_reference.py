"""Reference scans for differential tests of :mod:`dpda.validation`.

These are the validator's earlier per-cell paths: C0 builds each column's
list of band cells at every in-band row, C1 counts the first band's stars
cell by cell, C3 and the unique-sender check each walk every cell, and the
two grid count diagnostics walk the grid.  The slot facts come from a slot
index built here by its own per-cell scan, :func:`slot_cells`, which the
other test oracles share: C2 probes every id below S, C4 scans each slot's
pairs by index in sorted slot order, contiguity sorts the used ids, and the
occurrence and broadcast counts each walk the index.
``dpda.validation.validate`` derives the same fields from one walk over the
slot index ``Dpda`` builds, in id order, and one transposed grid; its report
must equal these on every array.
"""

from __future__ import annotations

from dpda import Dpda
from dpda.validation import ConditionCheck

_OK = ConditionCheck(True)


def slot_cells(p: Dpda) -> dict[int, list[tuple[int, int]]]:
    """Map each slot id that occurs in ``p`` to its (row, column) cells in
    row-major order, by a scan independent of ``Dpda``'s own index."""
    cells: dict[int, list[tuple[int, int]]] = {}
    for r in range(p.rows):
        for c in range(p.k):
            e = p.grid[r][c]
            if e is not None:
                cells.setdefault(e.slot, []).append((r, c))
    return cells


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


def c2(p: Dpda) -> ConditionCheck:
    cells = slot_cells(p)
    for s in range(p.s):
        if s not in cells:
            return ConditionCheck(False, (s,))
    return _OK


def c3(p: Dpda) -> ConditionCheck:
    for r, row in enumerate(p.grid):
        for c, e in enumerate(row):
            if e is not None and row[e.sender] is not None:
                return ConditionCheck(False, (r, c, e.slot, e.sender))
    return _OK


def c4(p: Dpda) -> tuple[ConditionCheck, ConditionCheck]:
    c4a = c4b = _OK
    for s, occ in sorted(slot_cells(p).items()):
        for i in range(len(occ)):
            r1, c1 = occ[i]
            for r2, c2 in occ[i + 1:]:
                if r1 == r2 or c1 == c2:
                    if c4a.passed:
                        c4a = ConditionCheck(False, (s, r1, c1, r2, c2))
                    continue
                if p.grid[r1][c2] is not None or p.grid[r2][c1] is not None:
                    if c4b.passed:
                        c4b = ConditionCheck(False, (s, r1, c1, r2, c2))
        if not (c4a.passed or c4b.passed):
            break
    return c4a, c4b


def unique_sender(p: Dpda) -> ConditionCheck:
    seen: dict[int, int] = {}
    for r, row in enumerate(p.grid):
        for c, e in enumerate(row):
            if e is not None and seen.setdefault(e.slot, e.sender) != e.sender:
                return ConditionCheck(False, (r, c, e.slot))
    return _OK


def slot_contiguity(p: Dpda) -> ConditionCheck:
    for i, s in enumerate(sorted(slot_cells(p))):
        if s != i:
            return ConditionCheck(False, (i,))
    return _OK


def slot_occurrences(p: Dpda) -> tuple[int, ...]:
    cells = slot_cells(p)
    return tuple(len(cells.get(s, ())) for s in range(p.s))


def broadcast_counts(p: Dpda) -> tuple[int, ...]:
    m = [0] * p.k
    for r, c in (occ[0] for occ in slot_cells(p).values()):
        m[p.grid[r][c].sender] += 1
    return tuple(m)


def row_integer_counts(p: Dpda) -> tuple[int, ...]:
    return tuple(sum(1 for e in row if e is not None) for row in p.grid)


def column_star_counts(p: Dpda) -> tuple[int, ...]:
    return tuple(sum(1 for row in p.grid if row[c] is None) for c in range(p.k))


def report_fields(p: Dpda) -> dict:
    """The report fields these scans cover, as the scans compute them."""
    c4a, c4b = c4(p)
    return {
        "c0": c0(p),
        "c1": c1(p),
        "c2": c2(p),
        "c3": c3(p),
        "c4a": c4a,
        "c4b": c4b,
        "unique_sender": unique_sender(p),
        "slot_contiguity": slot_contiguity(p),
        "slot_occurrences": slot_occurrences(p),
        "row_integer_counts": row_integer_counts(p),
        "column_star_counts": column_star_counts(p),
        "broadcast_counts": broadcast_counts(p),
    }
