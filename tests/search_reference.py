"""Reference paths for differential tests of :mod:`dpda.search`.

``search_min_s`` is the search's earlier unpruned path: every S from 0
upward runs a fresh pass over all ``C(F,Z)^K`` star patterns, with no
symmetry pruning, and partitions the coded cells of each one.
``dpda.search`` generates only the canonical patterns, once per run; its
``feasible``, ``minimal_s`` and ``exhausted`` must equal these, and both
witnesses must validate.  Node counts differ by design: this path
partitions every pattern.

``canonical_patterns`` is the search's earlier generate-and-test pattern
pass: it walks all ``C(F,Z)^K`` patterns in ``product`` order and keeps
those that pass a K!- or F!-permutation canonicity test.
``dpda.search._canonical_patterns`` generates only sorted line sequences
and must return the same (position, pattern) list.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import factorial
from typing import Iterator

from dpda import STAR, Coded, Dpda
from dpda.search import SearchResult, _partition_cells, _Rows


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


def canonical_patterns(k: int, f: int, z: int) -> Iterator[tuple[int, _Rows]]:
    """Canonical star patterns, each with its 1-based position in ``product`` order."""
    for pos, col_stars in enumerate(product(combinations(range(f), z), repeat=k), 1):
        rows = tuple(tuple(r in cs for cs in col_stars) for r in range(f))
        if _pattern_canonical(rows, f, k):
            yield pos, rows


def exists_dpda(k: int, f: int, z: int, s: int) -> SearchResult:
    counter = [0]
    for col_stars in product(combinations(range(f), z), repeat=k):
        counter[0] += 1
        star = [[r in col_stars[c] for c in range(k)] for r in range(f)]
        classes = _partition_cells(star, f, k, z, s, counter)
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
