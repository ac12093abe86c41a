"""Reference builders for differential tests of :mod:`dpda.construct`.

These are the family builders and ``lift`` as they were before the builders
made one entry per slot: every cell gets its own :class:`~dpda.Coded`,
built from the cell's coordinates (``construct_jcm``, ``construct_grid``)
or from the slot it shifts (``lift``).  The builders in ``dpda.construct``
must return an equal array on every parameter.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from dpda import STAR, Coded, Dpda, Entry


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
    tsubsets = list(combinations(range(k), t))
    u_rank = {u: i for i, u in enumerate(combinations(range(k), t + 1))}
    grid: list[tuple[Entry, ...]] = []
    for j in range(t):
        for tset in tsubsets:
            sender, row = tset[j], [STAR] * k
            for c in range(k):
                if c not in tset:
                    u = tuple(sorted(tset + (c,)))
                    row[c] = Coded((t + 1) * u_rank[u] + u.index(sender), sender)
            grid.append(tuple(row))
    return Dpda(
        k=k,
        lp=1,
        f=t * comb(k, t),
        z=t * comb(k - 1, t - 1),
        s=(t + 1) * comb(k, t + 1),
        grid=tuple(grid),
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
    pair_rank = {pair: i for i, pair in enumerate(combinations(range(q), 2))}
    grid: list[tuple[Entry, ...]] = []
    for i in range(q * q):
        i1, i0 = divmod(i, q)
        row: list[Entry] = []
        for col in range(2 * q):
            k1, k0 = divmod(col, q)
            digit = i0 if k1 == 0 else i1
            if digit == k0:
                row.append(STAR)
                continue
            if k1 == 0:
                b, x, pair, sender = 0, i1, (min(i0, k0), max(i0, k0)), q + i1
            else:
                b, x, pair, sender = 1, i0, (min(i1, k0), max(i1, k0)), i0
            slot = b * q * pair_count + x * pair_count + pair_rank[pair]
            row.append(Coded(slot, sender))
        grid.append(tuple(row))
    return Dpda(k=2 * q, lp=1, f=q * q, z=q, s=q**3 - q**2, grid=tuple(grid))


_EVEN_BASE: tuple[tuple[Entry, ...], ...] = (
    (Coded(2, 2), STAR, STAR, Coded(1, 1)),
    (STAR, Coded(2, 2), STAR, Coded(0, 0)),
    (Coded(3, 3), STAR, Coded(1, 1), STAR),
    (STAR, Coded(3, 3), Coded(0, 0), STAR),
)

_ODD_BASE: tuple[tuple[Entry, ...], ...] = (
    (STAR, Coded(0, 0), Coded(1, 0)),
    (Coded(3, 1), STAR, Coded(2, 1)),
    (Coded(4, 2), Coded(5, 2), STAR),
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
    grid = _grow(_EVEN_BASE, [[Coded(1, 1), Coded(0, 0), Coded(3, 3), Coded(2, 2)]],
                 2 * q)
    return Dpda(k=2 * q, lp=1, f=2 * q * (q - 1), z=2 * (q - 1) ** 2, s=2 * q, grid=grid)


def construct_odd(q: int) -> Dpda:
    """Odd-user recursive family: (2q+1, 1, 4q^2-1, (2q-1)^2, 4q+2).

    Grows the 3-user base two users at a time (:func:`_grow`) with two
    boundary vectors; user u sends slots 2u and 2u+1.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    grid = _grow(_ODD_BASE, [[Coded(2, 1), Coded(4, 2), Coded(0, 0)],
                             [Coded(5, 2), Coded(1, 0), Coded(3, 1)]], 2 * q + 1)
    return Dpda(k=2 * q + 1, lp=1, f=4 * q * q - 1, z=(2 * q - 1) ** 2, s=4 * q + 2, grid=grid)


def lift(p: Dpda, lp_new: int) -> Dpda:
    """Stack ``lp_new`` copies of an L'=1 array, shifting copy i's slots by i*S.

    Senders are unchanged; the result serves L'-block requests with S' =
    lp_new * S slots at the identical rate S/F.
    """
    if p.lp != 1:
        raise ValueError(f"lift requires an L'=1 array, got L'={p.lp}")
    if lp_new < 1:
        raise ValueError(f"lift factor must be >= 1, got {lp_new}")
    grid: list[tuple[Entry, ...]] = []
    for copy in range(lp_new):
        shift = copy * p.s
        for row in p.grid:
            grid.append(tuple(
                e if e is None else Coded(e.slot + shift, e.sender) for e in row
            ))
    return Dpda(k=p.k, lp=lp_new, f=p.f, z=p.z, s=lp_new * p.s, grid=tuple(grid))
