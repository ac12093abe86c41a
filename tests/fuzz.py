"""Seeded random generators and array helpers shared by the test modules.

:func:`differential_corpus` is the array set on which the differential tests
compare the library's parser and validator with their reference oracles
(``core_reference``, ``validation_reference``).
"""

from __future__ import annotations

import random

from dpda import (
    Coded,
    Dpda,
    FormatError,
    STAR,
    construct_even,
    construct_grid,
    construct_jcm,
    construct_odd,
    lift,
    slot_cells,
)

from symmetry import permute_band_rows, permute_columns, relabel_slots


def random_well_formed(rng: random.Random) -> Dpda:
    """Structurally well-formed array: consistent senders, in-range slots.

    Makes no attempt at the semantic conditions; used for wire-format
    round-trip checks, directly and through the ``well_formed_dpdas``
    hypothesis strategy.
    """
    k = rng.randint(1, 5)
    lp = rng.randint(1, 3)
    f = rng.randint(1, 4)
    z = rng.randint(0, f)
    s = rng.randint(0, 6)
    senders = [rng.randrange(k) for _ in range(s)]
    grid = []
    for _ in range(lp * f):
        row = []
        for _ in range(k):
            if s == 0 or rng.random() < 0.5:
                row.append(STAR)
            else:
                slot = rng.randrange(s)
                row.append(Coded(slot, senders[slot]))
        grid.append(tuple(row))
    return Dpda(k=k, lp=lp, f=f, z=z, s=s, grid=tuple(grid))


def random_symmetry_action(p: Dpda, rng: random.Random) -> Dpda:
    """One random element of the validity-preserving symmetry group."""
    band = list(range(p.f))
    rng.shuffle(band)
    cols = list(range(p.k))
    rng.shuffle(cols)
    slots = list(range(p.s))
    rng.shuffle(slots)
    q = permute_band_rows(p, band)
    q = permute_columns(q, cols)
    return relabel_slots(q, slots)


def valid_corpus() -> list[Dpda]:
    """Small valid arrays spanning all families and a lifted instance."""
    p4 = construct_even(2)
    return [
        construct_odd(1),
        p4,
        construct_odd(2),
        construct_even(3),
        construct_grid(2),
        construct_grid(3),
        construct_jcm(3, 1),
        construct_jcm(4, 2),
        construct_jcm(4, 3),
        lift(p4, 2),
        lift(construct_odd(1), 3),
    ]


def slot_senders(p: Dpda) -> dict[int, int]:
    """Map each slot id occurring in ``p`` to its sender, read at its first cell."""
    return {s: p.grid[r][c].sender for s, [(r, c), *_] in slot_cells(p).items()}


def with_entries(p: Dpda, *edits: tuple[int, int, object]) -> Dpda:
    """``p`` with each (row, column, entry) edit applied, checked by ``Dpda``."""
    grid = [list(row) for row in p.grid]
    for r, c, entry in edits:
        grid[r][c] = entry
    return Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=p.s,
                grid=tuple(tuple(row) for row in grid))


def star_cell_flips(p: Dpda):
    """Every copy of ``p`` with one coded cell made a star, or one star made
    coded as slot 0, among those ``Dpda`` accepts."""
    for r, row in enumerate(p.grid):
        for c, e in enumerate(row):
            if e is not None:
                yield with_entries(p, (r, c, STAR))
                continue
            for sender in range(p.k if p.s else 0):
                try:
                    flipped = with_entries(p, (r, c, Coded(0, sender)))
                except FormatError:  # slot 0 already has another sender
                    continue
                yield flipped


def two_sender_copies(p: Dpda):
    """Every copy of ``p`` with one coded cell handed to the next user, which
    gives its slot two senders when the slot has other cells; built past
    ``Dpda``'s structural checks, which would refuse those."""
    for r, row in enumerate(p.grid):
        for c, e in enumerate(row):
            if e is not None and p.k > 1:
                grid = [list(cells) for cells in p.grid]
                grid[r][c] = Coded(e.slot, (e.sender + 1) % p.k)
                q = object.__new__(Dpda)
                for field, value in zip(Dpda._fields, (p.k, p.lp, p.f, p.z, p.s,
                                                       tuple(map(tuple, grid)))):
                    object.__setattr__(q, field, value)
                yield q


def lifted_corpus() -> list[Dpda]:
    """The valid corpus and the L' = 2 and 3 lifts of its one-band arrays."""
    bases = valid_corpus()
    return bases + [lift(p, lp) for p in bases if p.lp == 1 for lp in (2, 3)]


def differential_corpus() -> list[Dpda]:
    """The lifted corpus, every accepted single-cell flip of it, and 2,000
    seeded random well-formed arrays."""
    bases = lifted_corpus()
    rng = random.Random(20261018)
    return (bases + [q for p in bases for q in star_cell_flips(p)]
            + [random_well_formed(rng) for _ in range(2000)])
