"""The symmetry toolkit of the test suite: validity-preserving transforms of
an array, and the exact orbit representative of a small one.

An array's validity (C0-C4) is unchanged by permuting the F in-band rows
identically in every band, by permuting the columns with each sender
relabeled along, and by a bijective relabeling of the slot ids.  The
library never needs these transforms, so they live here, next to the
reference oracles, where the tests of the search's symmetry pruning and the
random orbit points of ``fuzz.random_symmetry_action`` use them.

``canonicalize`` computes the exact orbit representative of a small L'=1
array under row permutation, column permutation with sender relabeling and
slot-id bijection: the arrangement whose entry sequence (stars before coded
entries, then by slot label and sender) is lexicographically least.
"""

from __future__ import annotations

from itertools import permutations
from typing import Mapping, Sequence

from dpda import STAR, Coded, Dpda, Entry
from dpda.search import SearchSpaceError

CANON_CELLS_LIMIT = 36


def permute_band_rows(p: Dpda, order: Sequence[int]) -> Dpda:
    """Apply one permutation of the F rows identically to every band.

    ``order[h]`` names the old in-band row placed at in-band position ``h``.
    """
    if sorted(order) != list(range(p.f)):
        raise ValueError("order must be a permutation of range(F)")
    grid = tuple(
        p.grid[band * p.f + order[h]] for band in range(p.lp) for h in range(p.f)
    )
    return Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=p.s, grid=grid)


def permute_columns(p: Dpda, order: Sequence[int]) -> Dpda:
    """Reorder columns and relabel senders accordingly.

    ``order[c]`` names the old column placed at position ``c``; a coded
    entry's sender ``k`` becomes ``k``'s new position.
    """
    if sorted(order) != list(range(p.k)):
        raise ValueError("order must be a permutation of range(K)")
    return Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=p.s, grid=_permuted_grid(p.grid, order))


def _permuted_grid(grid: Sequence[Sequence[Entry]], order: Sequence[int]
                   ) -> tuple[tuple[Entry, ...], ...]:
    """``grid`` with column ``order[c]`` placed at ``c`` and senders relabeled along."""
    inv = [0] * len(order)
    for new, old in enumerate(order):
        inv[old] = new
    return tuple(
        tuple(
            e if e is None else Coded(e.slot, inv[e.sender])
            for e in (row[old] for old in order)
        )
        for row in grid
    )


def relabel_slots(p: Dpda, mapping: Sequence[int] | Mapping[int, int]) -> Dpda:
    """Apply a bijective slot-id relabeling (senders are unchanged)."""
    table = dict(enumerate(mapping)) if not isinstance(mapping, Mapping) else dict(mapping)
    used = {e.slot for row in p.grid for e in row if e is not None}
    if not used <= table.keys():
        raise ValueError(f"mapping does not cover used slots {sorted(used - table.keys())}")
    image = {table[s] for s in used}
    if len(image) != len(used) or any(not 0 <= v < p.s for v in image):
        raise ValueError("mapping must be injective into [0,S) on the used slots")
    grid = tuple(
        tuple(e if e is None else Coded(table[e.slot], e.sender) for e in row)
        for row in p.grid
    )
    return Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=p.s, grid=grid)


def _row_key(row: tuple[Entry, ...], slot_map: dict[int, int]
             ) -> tuple[tuple[tuple[int, int, int], ...], dict[int, int]]:
    """Keys of ``row``'s entries, and a copy of ``slot_map`` that labels its new slots."""
    trial_map = dict(slot_map)
    key = tuple((0, 0, 0) if e is None
                else (1, trial_map.setdefault(e.slot, len(trial_map)), e.sender)
                for e in row)
    return key, trial_map


def canonicalize(p: Dpda, *, cells_limit: int = CANON_CELLS_LIMIT) -> Dpda:
    """Exact orbit representative of a valid L'=1 array.

    Minimizes the row-major entry sequence over row permutations, column
    permutations (senders relabeled along), and slot bijections; entries
    compare star-first, then by (slot label, sender).  Idempotent, and
    constant on each symmetry orbit.
    """
    if p.lp != 1:
        raise ValueError(f"canonicalization handles L'=1 arrays, got L'={p.lp}")
    if p.f * p.k > cells_limit or p.k > 8:
        raise SearchSpaceError(
            f"instance too large for exact canonicalization "
            f"({p.f}x{p.k} cells, guard {cells_limit}, K <= 8)"
        )
    best: list[tuple] | None = None

    def descend(rows: tuple[tuple[Entry, ...], ...], used: list[bool],
                slot_map: dict[int, int], acc: list[tuple]) -> None:
        nonlocal best
        depth = len(acc)
        if depth == len(rows):
            if best is None or acc < best:
                best = list(acc)
            return
        candidates = []
        for idx, row in enumerate(rows):
            if used[idx]:
                continue
            key, trial_map = _row_key(row, slot_map)
            candidates.append((key, idx, trial_map))
        # only rows achieving the minimal key can start the lex-min
        # completion; equal keys may bind slot labels differently, so ties
        # all branch
        low = min(c[0] for c in candidates)
        acc.append(low)
        if best is not None and acc > best[:depth + 1]:
            acc.pop()
            return
        for key, idx, trial_map in candidates:
            if key != low:
                continue
            used[idx] = True
            descend(rows, used, trial_map, acc)
            used[idx] = False
        acc.pop()

    for perm in permutations(range(p.k)):
        descend(_permuted_grid(p.grid, perm), [False] * p.f, {}, [])

    assert best is not None
    grid = tuple(
        tuple(STAR if kind == 0 else Coded(label, sender) for kind, label, sender in row_key)
        for row_key in best
    )
    return Dpda(k=p.k, lp=1, f=p.f, z=p.z, s=p.s, grid=grid)
