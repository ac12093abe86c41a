"""Reference S-scan for differential tests of :mod:`dpda.search`.

This is the search's earlier unpruned path: every S from 0 upward runs a
fresh pass over all ``C(F,Z)^K`` star patterns, with no symmetry pruning,
and partitions the coded cells of each one.  ``dpda.search`` enumerates only
the canonical patterns, once per run; its ``feasible``, ``minimal_s`` and
``exhausted`` must equal these, and both witnesses must validate.  Node
counts differ by design: this path partitions every pattern.
"""

from __future__ import annotations

from itertools import combinations, product

from dpda import STAR, Coded, Dpda
from dpda.search import SearchResult, _partition_cells


def instances(max_cells: int) -> list[tuple[int, int, int]]:
    """Every (K, F, Z) with K >= 2, F >= 2 and K*F <= max_cells, in the order
    of ``scripts/certify_floors.py``."""
    return [(k, f, z)
            for k in range(2, max_cells // 2 + 1)
            for f in range(2, max_cells // k + 1)
            for z in range(1, f + 1)]


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
