"""Seeded random generators and array helpers shared by the test modules."""

from __future__ import annotations

import random

from dpda import (
    Coded,
    Dpda,
    STAR,
    construct_even,
    construct_grid,
    construct_jcm,
    construct_odd,
    lift,
    permute_band_rows,
    permute_columns,
    relabel_slots,
    slot_cells,
)


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
