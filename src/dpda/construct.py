"""Deterministic builders for four DPDA families and the block-request lift.

Families (all rate-optimal, L' = 1):

* ``construct_jcm(K, t)`` - the subset-indexed baseline family with
  parameters (K, 1, t*C(K,t), t*C(K-1,t-1), (t+1)*C(K,t+1)), memory ratio
  t/K;
* ``construct_grid(q)`` - a (2q, 1, q^2, q, q^3-q^2) family at memory ratio
  1/q, meeting the K^2/4 packet-number floor for even user counts;
* ``construct_even(q)`` - a recursive (2q, 1, 2q(q-1), 2(q-1)^2, 2q) family
  at memory ratio (K-2)/K, K even;
* ``construct_odd(q)`` - a recursive (2q+1, 1, 4q^2-1, (2q-1)^2, 4q+2)
  family at memory ratio (K-2)/K, K odd.

``lift`` stacks slot-shifted copies of an L'=1 array to serve L'-block
requests at unchanged rate.

Symbolic slot labels (subsets, super combinations) are numbered by
lexicographic subset rank, read from one ``combinations`` table per builder
call; the chosen bijections are fixed so outputs are bit-reproducible.
Every builder makes one :class:`~dpda.core.Coded` entry per slot, which all
the cells of that slot share, and ``lift`` one per copy and slot.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from types import SimpleNamespace

from . import mirror
from .core import STAR, Coded, Dpda, Entry, serialize_dpda

__all__ = [
    "construct_jcm",
    "construct_grid",
    "construct_even",
    "construct_odd",
    "lift",
]


def construct_jcm(k: int, t: int) -> Dpda:
    """Baseline family array for ``k`` users at memory ratio ``t/k``.

    Rows are indexed by (T, j) with T a t-subset of users and j in [0, t),
    laid out j-major with T in lexicographic order.  The entry in row (T, j)
    and column c not in T belongs to the slot of the (t+1)-subset
    U = T + {c}; the sender is T[j] (the j-th element of U skipping c), and
    the slot id is (t+1) * rank(U) + (position of T[j] in U).
    """
    if not 1 <= t < k:
        raise ValueError(f"t must satisfy 1 <= t < K, got t={t}, K={k}")
    # slots[x][bitmask of U]: the one entry of the slot that user x sends for U
    slots: list[dict[int, Coded]] = [{} for _ in range(k)]
    for i, u in enumerate(combinations(range(k), t + 1)):
        mask = sum(1 << x for x in u)
        for position, x in enumerate(u):
            slots[x][mask] = Coded((t + 1) * i + position, x)
    tsubsets = list(combinations(range(k), t))
    # per T, the bitmask of T + {c} in each column c; in T's own columns it
    # is T's bitmask, which names no slot, so the lookup gives a star
    masks = [[m | 1 << c for c in range(k)] for m in (sum(1 << x for x in tset)
                                                         for tset in tsubsets)]
    grid = tuple(tuple(map(slots[tset[j]].get, row_masks))
                 for j in range(t) for tset, row_masks in zip(tsubsets, masks))
    return Dpda(
        k=k,
        lp=1,
        f=t * comb(k, t),
        z=t * comb(k - 1, t - 1),
        s=(t + 1) * comb(k, t + 1),
        grid=grid,
    )


def construct_grid(q: int) -> Dpda:
    """Grid family array for 2q users at memory ratio 1/q.

    Rows carry the base-q digits (i1, i0) of i in [0, q^2); columns the
    digits (k1, k0) of k in [0, 2q) with k1 in {0, 1}.  A cell is a star
    when digit i_{k1} equals k0.  A coded cell at (i, k) is labelled by the
    super combination ((b, x), {y, z}) and numbered
    b*q*C(q,2) + x*C(q,2) + rank({y, z}), the pair's lexicographic rank.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    pair_count = comb(q, 2)
    # rank[a][b]: the rank of the pair {a, b}; at a == b, the star's index
    rank = [[pair_count] * q for _ in range(q)]
    for i, (y, z) in enumerate(combinations(range(q), 2)):
        rank[y][z] = rank[z][y] = i
    # block[b*q + x]: one entry per slot ((b, x), pair) in pair rank order,
    # then a star; user q + x sends the b = 0 slots, user x the b = 1 slots
    block = [[Coded(bx * pair_count + i, (bx + q) % (2 * q)) for i in range(pair_count)]
             + [STAR] for bx in range(2 * q)]
    grid = tuple((*map(block[i1].__getitem__, rank[i0]),
                  *map(block[q + i0].__getitem__, rank[i1]))
                 for i1 in range(q) for i0 in range(q))
    return Dpda(k=2 * q, lp=1, f=q * q, z=q, s=q**3 - q**2, grid=grid)


# The base arrays' entries, one per slot: in the even base user u sends
# slot u, in the odd base slots 2u and 2u+1.
_E = [Coded(s, s) for s in range(4)]
_O = [Coded(s, s // 2) for s in range(6)]

_EVEN_BASE: tuple[tuple[Entry, ...], ...] = (
    (_E[2], STAR, STAR, _E[1]),
    (STAR, _E[2], STAR, _E[0]),
    (_E[3], STAR, _E[1], STAR),
    (STAR, _E[3], _E[0], STAR),
)

_ODD_BASE: tuple[tuple[Entry, ...], ...] = (
    (STAR, _O[0], _O[1]),
    (_O[3], STAR, _O[2]),
    (_O[4], _O[5], STAR),
)


def _grow(base: tuple[tuple[Entry, ...], ...], vectors: list[list[Coded]],
          k: int) -> tuple[tuple[Entry, ...], ...]:
    """Grow a recursive family's base array two users at a time to ``k`` users.

    With m boundary vectors, user u sends slot m*u + v for each vector v.  The
    step from n users pads every row with two stars.  Then, for each vector,
    it appends an n-row block per new user u in (n, n+1): u's coded entry on
    the diagonal, and the other new user's column filled from the vector.
    Last it extends the vector with the two entries in reverse order.
    """
    grid, m = list(base), len(vectors)
    for n in range(len(base[0]), k, 2):
        grid = [row + (STAR, STAR) for row in grid]
        for v, vector in enumerate(vectors):
            new = [Coded(m * u + v, u) for u in (n, n + 1)]
            for e in new:
                for r in range(n):
                    row: list[Entry] = [STAR] * (n + 2)
                    row[r], row[2 * n + 1 - e.sender] = e, vector[r]
                    grid.append(tuple(row))
            vector += reversed(new)
    return tuple(grid)


def construct_even(q: int) -> Dpda:
    """Even-user recursive family: (2q, 1, 2q(q-1), 2(q-1)^2, 2q).

    Grows the 4-user base two users at a time (:func:`_grow`) with one
    boundary vector; user u sends slot u.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    grid = _grow(_EVEN_BASE, [[_E[1], _E[0], _E[3], _E[2]]], 2 * q)
    return Dpda(k=2 * q, lp=1, f=2 * q * (q - 1), z=2 * (q - 1) ** 2, s=2 * q, grid=grid)


def construct_odd(q: int) -> Dpda:
    """Odd-user recursive family: (2q+1, 1, 4q^2-1, (2q-1)^2, 4q+2).

    Grows the 3-user base two users at a time (:func:`_grow`) with two
    boundary vectors; user u sends slots 2u and 2u+1.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    grid = _grow(_ODD_BASE, [[_O[2], _O[4], _O[0]], [_O[5], _O[1], _O[3]]], 2 * q + 1)
    return Dpda(k=2 * q + 1, lp=1, f=4 * q * q - 1, z=(2 * q - 1) ** 2, s=4 * q + 2, grid=grid)


def lift(p: Dpda, lp_new: int) -> Dpda:
    """Stack ``lp_new`` copies of an L'=1 array, shifting copy i's slots by i*S.

    Senders are unchanged; the result serves L'-block requests with S' =
    lp_new * S slots at the identical rate S/F.  Each copy holds one entry
    per slot, shared by all the cells of that slot.
    """
    if p.lp != 1:
        raise ValueError(f"lift requires an L'=1 array, got L'={p.lp}")
    if lp_new < 1:
        raise ValueError(f"lift factor must be >= 1, got {lp_new}")
    slot_rows = [[None if e is None else e.slot for e in row] for row in p.grid]
    senders = {e.slot: e.sender for row in p.grid for e in row if e is not None}
    grid: list[tuple[Entry, ...]] = []
    for copy in range(lp_new):
        shift = copy * p.s
        entry = {slot: Coded(slot + shift, sender) for slot, sender in senders.items()}
        grid += [tuple(map(entry.get, row)) for row in slot_rows]  # a star's None finds none
    return Dpda(k=p.k, lp=lp_new, f=p.f, z=p.z, s=lp_new * p.s, grid=tuple(grid))


def _cmd_construct(args: SimpleNamespace) -> int:
    from .cli import _emit

    if args.family == "jcm":
        if args.k is None or args.t is None:
            raise ValueError("--family jcm requires --k and --t")
        p = construct_jcm(args.k, args.t)
    else:
        if args.q is None:
            raise ValueError(f"--family {args.family} requires --q")
        builder = {"grid": construct_grid, "even": construct_even, "odd": construct_odd}
        p = builder[args.family](args.q)
    if args.lift is not None:
        p = lift(p, args.lift)
    if args.json:
        from .jsonout import dumps

        text = dumps(mirror.dpda_to_json(p))
    else:
        text = serialize_dpda(p)
    _emit(text, args.out)
    return 0
