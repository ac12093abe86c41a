"""Exhaustive search for minimum-slot arrays at desk scale.

``exists_dpda`` decides whether a (K, 1, F, Z, S) array exists, returning a
witness when it does; ``search_min_s`` enumerates the star patterns once and
scans S upward over them to certify the exact minimum.  The search is
complete: star patterns (column star sets, exactly Z per column) are
enumerated first, then the coded cells are partitioned into exactly S slot
classes subject to the pair conditions and the existence of a sender column.
A star pattern is held as line masks, most significant bit first (bit K-1-c
of a row is column c, bit F-1-r of a column is row r), and each canonical
pattern's coded cells and masks are derived once, for every S.  A class
keeps its rows, columns and feasible senders as masks too, and a cell joins
it with one test against its row's and its column's star masks: every
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
explicit instead of silently partial: a refused instance raises
:class:`SearchSpaceError`, a ``ValueError`` like any other refused input.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations, combinations_with_replacement, permutations
from math import comb
from types import SimpleNamespace

from .core import STAR, Coded, Dpda, Entry, _as_json, _Record, serialize_dpda

__all__ = [
    "DEFAULT_CELLS_LIMIT",
    "SearchSpaceError",
    "SearchResult",
    "exists_dpda",
    "search_min_s",
]

DEFAULT_CELLS_LIMIT = 24


class SearchSpaceError(ValueError):
    """The instance exceeds the configured exhaustive-search guard; the CLI
    reports it as an input error (exit 2)."""


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


def _pattern_canonical(lines: tuple[int, ...], images: list[list[int]]) -> bool:
    """True iff no table in ``images`` (each line's image under one permutation
    of its cells), then sorting, makes ``lines`` smaller: its orbit's canonical member."""
    return all(lines <= tuple(sorted(image[line] for line in lines)) for image in images)


def _partition_cells(pattern: tuple, f: int, k: int, z: int,
                     s_target: int, counter: list[int]) -> list[tuple] | None:
    """Partition a pattern's coded cells into exactly ``s_target`` slot classes.

    The pattern is as ``_canonical_patterns`` gives it; a class is a tuple of
    its cells and its row, column and sender masks.  Cell (r, c) joins a
    class that is not full iff row r holds stars in all the class's columns,
    column c holds stars in all its rows, and row r holds a star in one of
    its senders: every crossing cell is then a star, which also keeps the
    coded members off row r and column c.  A new class's senders are row r's
    star columns.  Returns the classes in creation order, or None if none.
    """
    cells, row_stars, col_stars = pattern
    if len(cells) < s_target:
        return None
    cap = min(f, k - 1, z) if cells else 0
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
        row_bit, col_bit = 1 << f - 1 - r, 1 << k - 1 - c
        for i, old in enumerate(classes):
            members, rows, cols, senders = old
            if (len(members) == cap or cols & ~in_row or rows & ~in_col
                    or not senders & in_row):
                continue
            counter[0] += 1
            classes[i] = (members + ((r, c),), rows | row_bit, cols | col_bit, senders & in_row)
            if extend(idx + 1):
                return True
            classes[i] = old
        if len(classes) < s_target and in_row:
            counter[0] += 1
            classes.append((((r, c),), row_bit, col_bit, in_row))
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


def _sorted_rows(k: int, f: int, z: int) -> Iterator[tuple[int, ...]]:
    """Every sorted sequence of F row masks with Z stars in each column.
    Rows are chosen one at a time, and a branch is cut as soon as a column
    holds more than Z stars or can no longer reach Z."""
    rows: list[int] = []

    def extend(start: int, sums: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        left = f - len(rows) - 1  # rows still to choose after this one
        full = sum(1 << b for b, n in enumerate(sums) if n == z)  # sums[b] counts bit b
        need = sum(1 << b for b, n in enumerate(sums) if n + left < z)
        for row in range(start, 1 << k):
            if row & full or row & need != need:
                continue
            rows.append(row)
            if left:
                yield from extend(row, tuple(n + (row >> b & 1) for b, n in enumerate(sums)))
            else:
                yield tuple(rows)
            rows.pop()

    return extend(0, (0,) * k)


def _canonical_patterns(k: int, f: int, z: int) -> list[tuple[int, tuple]]:
    """Canonical star patterns with their 1-based positions in ``product``
    order, sorted by position; only sorted line sequences (rows when K <= F,
    else columns) with Z stars per column are generated.  A pattern is its
    coded cells in row-major order with its row and column masks."""
    rank = {sum(1 << f - 1 - r for r in cs): i for i, cs in enumerate(combinations(range(f), z))}
    by_rows = k <= f
    width = k if by_rows else f
    images = [[sum(1 << width - 1 - j for j, i in enumerate(perm) if line >> width - 1 - i & 1)
               for line in range(1 << width)] for perm in permutations(range(width))]
    candidates = (_sorted_rows(k, f, z) if by_rows
                  else combinations_with_replacement(sorted(rank), k))
    found = []
    for lines in candidates:
        if _pattern_canonical(lines, images):
            crossing = tuple(sum(1 << len(lines) - 1 - i for i, line in enumerate(lines)
                                 if line >> width - 1 - j & 1) for j in range(width))
            rows, cols = (lines, crossing) if by_rows else (crossing, lines)
            pos = 1 + sum(rank[col] * len(rank) ** (k - 1 - c) for c, col in enumerate(cols))
            cells = tuple((r, c) for r in range(f) for c in range(k)
                          if not rows[r] >> k - 1 - c & 1)
            found.append((pos, (cells, rows, cols)))
    return sorted(found)


def _first_witness(k: int, f: int, z: int, s: int,
                   patterns: Iterable[tuple[int, tuple]]) -> SearchResult:
    """The first (K, 1, F, Z, S) array over ``patterns``, if any."""
    counter = [0]
    for pos, pattern in patterns:
        classes = _partition_cells(pattern, f, k, z, s, counter)
        if classes is None:
            continue
        # the classes hold each coded cell once, so filling them completes an all-star grid
        grid: list[list[Entry]] = [[STAR] * k for _ in range(f)]
        for slot, (cells, _rows, _cols, senders) in enumerate(classes):
            entry = Coded(slot, k - senders.bit_length())  # the lowest feasible sender
            for r, c in cells:
                grid[r][c] = entry
        witness = Dpda(k=k, lp=1, f=f, z=z, s=s, grid=grid)
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
    result = search_min_s(args.k, args.f, args.z, s_max, cells_limit=args.cells_limit)
    code = 0 if result.feasible else 1
    if args.json:
        return result.to_json(), code
    if result.feasible:
        return (f"minimal S = {result.minimal_s} (nodes explored: {result.nodes_explored})\n"
                + serialize_dpda(result.witness)), code
    return f"no array with S <= {s_max} (nodes explored: {result.nodes_explored})\n", code
