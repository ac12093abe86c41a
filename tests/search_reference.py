"""Reference paths for differential tests of :mod:`dpda.search`.

``search_min_s`` is the search's earlier unpruned path: every S from 0
upward runs a fresh pass over all ``C(F,Z)^K`` star patterns, with no
symmetry pruning, and partitions the coded cells of each one.
``dpda.search`` generates only the canonical patterns, once per run; its
``feasible``, ``minimal_s`` and ``exhausted`` must equal these, and both
witnesses must validate.  Node counts differ by design: this path
partitions every pattern.

``partition_cells`` is the search's earlier set-based cell partition:
each slot class is a mutable object holding its cells and its row, column
and sender sets.  ``dpda.search._partition_cells`` works on star bitmasks
and must give the same verdict, the same classes in the same order with
the same lowest sender, and the same node count.

``canonical_patterns`` is the search's earlier generate-and-test pattern
pass: it walks all ``C(F,Z)^K`` patterns in ``product`` order and keeps
those that pass a K!- or F!-permutation canonicity test.
``dpda.search._canonical_patterns`` generates only sorted line sequences
and must return the same (position, pattern) list.

``sorted_line_patterns`` is the search's earlier sorted-line generator on
bool rows, with a canonicity test that permutes the cells of every line
tuple by tuple.  ``dpda.search._canonical_patterns`` holds each line as an
MSB-first mask and tests against a table of each line's image under each
permutation, and must return the same patterns in the same order.
``facts`` gives a bool-row pattern in the form ``dpda.search`` holds it.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial
from typing import Iterator

from dpda import STAR, Coded, Dpda
from dpda.search import SearchResult

_Rows = tuple[tuple[bool, ...], ...]  # star pattern: a star flag per cell, row-major


class _Class:
    __slots__ = ("cells", "rows", "cols", "senders")

    def __init__(self, r: int, c: int, senders: set[int]):
        self.cells = [(r, c)]
        self.rows = {r}
        self.cols = {c}
        self.senders = senders


def partition_cells(star: _Rows, f: int, k: int, z: int,
                    s_target: int, counter: list[int]) -> list[_Class] | None:
    """Partition the non-star cells into exactly ``s_target`` slot classes.

    Each class must have pairwise distinct rows and columns, stars at all
    crossing positions, and at least one feasible sender column (a column
    outside the class with stars in every class row).  Returns the classes
    in creation order, or None when no partition exists.
    """
    cells = [(r, c) for r in range(f) for c in range(k) if not star[r][c]]
    if len(cells) < s_target:
        return None
    cap = min(f, k - 1, z) if cells else 0
    star_cols_by_row = [
        frozenset(c for c in range(k) if star[r][c]) for r in range(f)
    ]
    classes: list[_Class] = []

    def extend(idx: int) -> bool:
        if idx == len(cells):
            return len(classes) == s_target
        remaining = len(cells) - idx
        if len(classes) + remaining < s_target:
            return False
        room = sum(cap - len(cl.cells) for cl in classes)
        room += (s_target - len(classes)) * cap
        if room < remaining:
            return False
        r, c = cells[idx]
        for cl in classes:
            if len(cl.cells) == cap or r in cl.rows or c in cl.cols:
                continue
            if any(not star[r][c2] or not star[r2][c] for r2, c2 in cl.cells):
                continue
            new_senders = {x for x in cl.senders if star[r][x]}
            new_senders.discard(c)
            if not new_senders:
                continue
            counter[0] += 1
            old_senders = cl.senders
            cl.cells.append((r, c))
            cl.rows.add(r)
            cl.cols.add(c)
            cl.senders = new_senders
            if extend(idx + 1):
                return True
            cl.cells.pop()
            cl.rows.discard(r)
            cl.cols.discard(c)
            cl.senders = old_senders
        if len(classes) < s_target:
            senders = set(star_cols_by_row[r])
            senders.discard(c)
            if senders:
                counter[0] += 1
                classes.append(_Class(r, c, senders))
                if extend(idx + 1):
                    return True
                classes.pop()
        return False

    return classes if extend(0) else None


def instances(max_cells: int) -> list[tuple[int, int, int]]:
    """Every (K, F, Z) with K >= 2, F >= 2 and K*F <= max_cells, in the order
    of ``scripts/certify_floors.py``."""
    return [(k, f, z)
            for k in range(2, max_cells // 2 + 1)
            for f in range(2, max_cells // k + 1)
            for z in range(1, f + 1)]


def _pattern_canonical(rows: _Rows, f: int, k: int) -> bool:
    """True iff this star pattern is the canonical member of its orbit under
    row and column permutations.

    The canonical form permutes whichever dimension has the smaller
    factorial and sorts the other, which is invariant on the orbit.
    """
    if factorial(k) <= factorial(f):
        best = min(
            tuple(sorted(tuple(row[c] for c in perm) for row in rows))
            for perm in permutations(range(k))
        )
        return rows == best
    cols = tuple(tuple(rows[r][c] for r in range(f)) for c in range(k))
    best = min(
        tuple(sorted(tuple(col[r] for r in perm) for col in cols))
        for perm in permutations(range(f))
    )
    return cols == best


def star_patterns(k: int, f: int, z: int) -> Iterator[_Rows]:
    """Every star pattern with Z stars per column, in ``product`` order."""
    for col_stars in product(combinations(range(f), z), repeat=k):
        yield tuple(tuple(r in cs for cs in col_stars) for r in range(f))


def canonical_patterns(k: int, f: int, z: int) -> Iterator[tuple[int, _Rows]]:
    """Canonical star patterns, each with its 1-based position in ``product`` order."""
    for pos, rows in enumerate(star_patterns(k, f, z), 1):
        if _pattern_canonical(rows, f, k):
            yield pos, rows


def exists_dpda(k: int, f: int, z: int, s: int) -> SearchResult:
    counter = [0]
    for star in star_patterns(k, f, z):
        counter[0] += 1
        classes = partition_cells(star, f, k, z, s, counter)
        if classes is None:
            continue
        grid: list[list] = [[STAR] * k for _ in range(f)]
        for slot, cl in enumerate(classes):
            sender = min(cl.senders)
            for r, c in cl.cells:
                grid[r][c] = Coded(slot, sender)
        witness = Dpda(k=k, lp=1, f=f, z=z, s=s,
                       grid=tuple(tuple(row) for row in grid))
        return SearchResult(True, None, witness, counter[0], True)
    return SearchResult(False, None, None, counter[0], True)


def search_min_s(k: int, f: int, z: int, s_max: int) -> SearchResult:
    nodes = 0
    for s in range(s_max + 1):
        res = exists_dpda(k, f, z, s)
        nodes += res.nodes_explored
        if res.feasible:
            return SearchResult(True, s, res.witness, nodes, True)
    return SearchResult(False, None, None, nodes, True)


def _mask(flags: tuple[bool, ...]) -> int:
    """The flags as an int, the first flag most significant."""
    return sum(flag << i for i, flag in enumerate(reversed(flags)))


def facts(star: _Rows) -> tuple:
    """``(cells, rows, cols)``: the coded cells in row-major order, then the
    row and the column star masks, the first cell of a line most significant."""
    cells = tuple((r, c) for r, row in enumerate(star) for c, flag in enumerate(row) if not flag)
    return cells, tuple(map(_mask, star)), tuple(map(_mask, zip(*star)))


def _lines_canonical(lines: _Rows) -> bool:
    """True iff no permutation of the cells within every line, followed by
    sorting the lines, gives a smaller tuple: the orbit's canonical member."""
    return all(
        lines <= tuple(sorted(tuple(line[i] for i in perm) for line in lines))
        for perm in permutations(range(len(lines[0])))
    )


def _sorted_rows(k: int, f: int, z: int) -> Iterator[_Rows]:
    """Every sorted sequence of F rows of K star flags with Z stars in each
    column.  Rows are chosen one at a time, and a branch is cut as soon as a
    column holds more than Z stars or can no longer reach Z."""
    types = list(product((False, True), repeat=k))  # column c is bit k-1-c of the index
    bits = [1 << (k - 1 - c) for c in range(k)]
    rows: list[tuple[bool, ...]] = []

    def extend(start: int, sums: tuple[int, ...]) -> Iterator[_Rows]:
        left = f - len(rows) - 1  # rows still to choose after this one
        full = sum(bit for bit, n in zip(bits, sums) if n == z)
        need = sum(bit for bit, n in zip(bits, sums) if n + left < z)
        for i in range(start, len(types)):
            if i & full or i & need != need:
                continue
            rows.append(types[i])
            if left:
                yield from extend(i, tuple(n + star for n, star in zip(sums, types[i])))
            else:
                yield tuple(rows)
            rows.pop()

    return extend(0, (0,) * k)


def sorted_line_patterns(k: int, f: int, z: int) -> list[tuple[int, _Rows]]:
    """Canonical star patterns with their 1-based positions in ``product``
    order, sorted by position; only sorted line sequences (rows when K <= F,
    else columns) with Z stars per column are generated."""
    rank = {tuple(r in cs for r in range(f)): i
            for i, cs in enumerate(combinations(range(f), z))}
    by_rows = k <= f
    candidates = (_sorted_rows(k, f, z) if by_rows
                  else combinations_with_replacement(sorted(rank), k))
    found = []
    for lines in candidates:
        cols = tuple(zip(*lines)) if by_rows else lines
        if _lines_canonical(lines):
            pos = 1 + sum(rank[col] * len(rank) ** (k - 1 - c)
                          for c, col in enumerate(cols))
            found.append((pos, tuple(zip(*cols))))
    return sorted(found)
