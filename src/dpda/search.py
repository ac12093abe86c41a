"""Exhaustive search for minimum-slot arrays at desk scale.

``exists_dpda`` decides whether a (K, 1, F, Z, S) array exists, returning a
witness when it does; ``search_min_s`` enumerates the star patterns once and
scans S upward over them to certify the exact minimum.  The search is
complete: star patterns (column star sets, exactly Z per column) are
enumerated first, then the coded cells are partitioned into exactly S slot
classes subject to the pair conditions and the existence of a sender column.
A class keeps its rows, columns and feasible senders as bitmasks, and a cell
joins it with one test against its row's and its column's star masks: every
crossing cell is a star (C4, which also keeps a class's rows and columns
distinct) and a sender column still holds a star in every class row (C3).

Pruning never changes answers, only node counts:

* symmetry - only canonical star patterns are extended, one per orbit under
  row and column permutation; their lines (rows when K <= F, else columns)
  are sorted, so only sorted line sequences are generated, and a row
  sequence is cut once a column sum can no longer end at Z;
* slot relabeling is quotiented away structurally (classes are numbered in
  first-cell order);
* capacity - a slot class can never exceed min(F, K-1, Z) cells, since its
  sender column must hold a star in every class row.

A hard cell-count guard (default 24, overridable per call) makes refusals
explicit instead of silently partial.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb
from types import SimpleNamespace
from typing import Iterable, Iterator

from .core import STAR, Coded, Dpda, Entry, _as_json, _Record, serialize_dpda

__all__ = [
    "DEFAULT_CELLS_LIMIT",
    "SearchSpaceError",
    "SearchResult",
    "exists_dpda",
    "search_min_s",
]

DEFAULT_CELLS_LIMIT = 24
_Rows = tuple[tuple[bool, ...], ...]  # star pattern: a star flag per cell, row-major


class SearchSpaceError(RuntimeError):
    """The instance exceeds the configured exhaustive-search guard."""


class SearchResult(_Record):
    """Outcome of an exhaustive run.

    ``minimal_s`` is set by :func:`search_min_s` only; an ``exists_dpda``
    witness carries its slot count in ``witness.s``.  ``nodes_explored``
    sums, over each S tried, the 1-based position of the witness's star
    pattern among all ``C(F,Z)^K`` in ``product`` order (all of them when S
    has no witness) and the cell-partition nodes.  ``exhausted`` is True
    when the whole space was covered (guard violations raise instead).
    """

    feasible: bool
    minimal_s: int | None
    witness: Dpda | None
    nodes_explored: int
    exhausted: bool

    to_json = _as_json


def _pattern_canonical(lines: _Rows) -> bool:
    """True iff no permutation of the cells within every line, followed by
    sorting the lines, gives a smaller tuple: the orbit's canonical member."""
    return all(
        lines <= tuple(sorted(tuple(line[i] for i in perm) for line in lines))
        for perm in permutations(range(len(lines[0])))
    )


def _partition_cells(star: _Rows, f: int, k: int, z: int,
                     s_target: int, counter: list[int]) -> list[tuple] | None:
    """Partition the non-star cells into exactly ``s_target`` slot classes.

    A class is a ``(cells, rows, cols, senders)`` tuple whose last three
    fields are bitmasks.  Cell (r, c) joins a class that is not full iff
    row r holds stars in all the class's columns, column c holds stars in
    all its rows, and row r holds a star in one of its senders: every
    crossing cell is then a star, which also keeps the coded members off
    row r and column c.  A new class's senders are row r's star columns.
    Returns the classes in creation order, or None when no partition exists.
    """
    cells = [(r, c) for r in range(f) for c in range(k) if not star[r][c]]
    if len(cells) < s_target:
        return None
    cap = min(f, k - 1, z) if cells else 0
    row_stars = [sum(1 << c for c in range(k) if star[r][c]) for r in range(f)]
    col_stars = [sum(1 << r for r in range(f) if star[r][c]) for c in range(k)]
    classes: list[tuple] = []

    def extend(idx: int) -> bool:
        if idx == len(cells):
            return len(classes) == s_target
        remaining = len(cells) - idx
        if len(classes) + remaining < s_target:
            return False
        room = sum(cap - len(cl[0]) for cl in classes)
        room += (s_target - len(classes)) * cap
        if room < remaining:
            return False
        r, c = cells[idx]
        in_row, in_col = row_stars[r], col_stars[c]
        for i, old in enumerate(classes):
            members, rows, cols, senders = old
            if (len(members) == cap or cols & ~in_row or rows & ~in_col
                    or not senders & in_row):
                continue
            counter[0] += 1
            classes[i] = (members + ((r, c),), rows | 1 << r, cols | 1 << c, senders & in_row)
            if extend(idx + 1):
                return True
            classes[i] = old
        if len(classes) < s_target and in_row:
            counter[0] += 1
            classes.append((((r, c),), 1 << r, 1 << c, in_row))
            if extend(idx + 1):
                return True
            classes.pop()
        return False

    return classes if extend(0) else None


def _check_instance(k: int, f: int, z: int, s: int, s_name: str,
                    cells_limit: int | None) -> None:
    if k < 2:
        raise ValueError(f"K must be >= 2, got {k}")
    if not 1 <= z <= f:
        raise ValueError(f"require 1 <= Z <= F, got Z={z}, F={f}")
    if s < 0:
        raise ValueError(f"{s_name} must be nonnegative, got {s}")
    limit = DEFAULT_CELLS_LIMIT if cells_limit is None else cells_limit
    if f * k > limit:
        raise SearchSpaceError(
            f"instance has {f * k} cells, above the exhaustive-search guard of "
            f"{limit}; raise cells_limit to insist"
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


def _canonical_patterns(k: int, f: int, z: int) -> list[tuple[int, _Rows]]:
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
        if _pattern_canonical(lines):
            pos = 1 + sum(rank[col] * len(rank) ** (k - 1 - c)
                          for c, col in enumerate(cols))
            found.append((pos, tuple(zip(*cols))))
    return sorted(found)


def _first_witness(k: int, f: int, z: int, s: int,
                   patterns: Iterable[tuple[int, _Rows]]) -> SearchResult:
    """The first (K, 1, F, Z, S) array over ``patterns``, if any."""
    counter = [0]
    for pos, star in patterns:
        classes = _partition_cells(star, f, k, z, s, counter)
        if classes is None:
            continue
        # every non-star cell belongs to exactly one class, so filling the
        # classes over an all-star grid yields the complete array
        grid: list[list[Entry]] = [[STAR] * k for _ in range(f)]
        for slot, (cells, _rows, _cols, senders) in enumerate(classes):
            sender = (senders & -senders).bit_length() - 1  # the lowest feasible sender
            for r, c in cells:
                grid[r][c] = Coded(slot, sender)
        witness = Dpda(k=k, lp=1, f=f, z=z, s=s,
                       grid=tuple(tuple(row) for row in grid))
        return SearchResult(True, None, witness, pos + counter[0], True)
    return SearchResult(False, None, None, comb(f, z) ** k + counter[0], True)


def exists_dpda(k: int, f: int, z: int, s: int, *,
                cells_limit: int | None = None) -> SearchResult:
    """Exhaustively decide whether a (K, 1, F, Z, S) array exists.

    Feasible results carry a witness (slots numbered in discovery order,
    each class's smallest feasible sender chosen).  The enumeration order is
    deterministic, so the returned witness is too.
    """
    _check_instance(k, f, z, s, "S", cells_limit)
    return _first_witness(k, f, z, s, _canonical_patterns(k, f, z))


def search_min_s(k: int, f: int, z: int, s_max: int, *,
                 cells_limit: int | None = None) -> SearchResult:
    """Smallest S <= s_max admitting a (K, 1, F, Z, S) array, with witness.

    Scans S upward from zero over the canonical star patterns, enumerated
    once, so every smaller value is certified infeasible by exhaustion.  No S
    above the (F-Z)*K coded cells has a witness, so the scan stops there and
    counts every pattern for each S above it.  A minimum below the exact rate
    floor S*Z >= F*(F-Z) is unsound and raises.
    """
    _check_instance(k, f, z, s_max, "s_max", cells_limit)
    patterns = _canonical_patterns(k, f, z)
    cells = (f - z) * k
    nodes = 0
    for s in range(min(s_max, cells) + 1):
        res = _first_witness(k, f, z, s, patterns)
        nodes += res.nodes_explored
        if res.feasible:
            if s * z < f * (f - z):
                raise AssertionError(
                    f"found S={s} below the rate floor F*(F-Z)/Z for "
                    f"(K,F,Z)=({k},{f},{z}); the search is unsound"
                )
            return SearchResult(True, s, res.witness, nodes, True)
    nodes += max(0, s_max - cells) * comb(f, z) ** k
    return SearchResult(False, None, None, nodes, True)


def _cmd_search(args: SimpleNamespace) -> tuple[str | dict, int]:
    s_max = args.max_s if args.max_s is not None else (args.f - args.z) * args.k
    try:
        result = search_min_s(args.k, args.f, args.z, s_max, cells_limit=args.cells_limit)
    except SearchSpaceError as exc:
        raise ValueError(str(exc)) from exc
    code = 0 if result.feasible else 1
    if args.json:
        return result.to_json(), code
    if result.feasible:
        return (f"minimal S = {result.minimal_s} (nodes explored: {result.nodes_explored})\n"
                + serialize_dpda(result.witness)), code
    return f"no array with S <= {s_max} (nodes explored: {result.nodes_explored})\n", code
