"""A decoding oracle that trusts no plan: linear algebra over GF(2) on
packet ids, for differential tests of :mod:`dpda.sim`.

Fix a demand.  Each packet id (file, block, packet) is a variable over
GF(2), one bit of an int.  Slot s's signal is the XOR of its cells' packet
ids, so a packet that a slot mixes twice cancels.  The demand is served
when every slot in [0, S) occurs, so that a sender sends it; each sender
holds every packet left in its signal; and each user finds each packet it
wants but lacks in the span of the signals, once the packets it caches
are zeroed out.  User k caches packet h of every file and block when row
h of column k is a star: band 0 is the placement.

It reads the grid's entries and nothing else: no slot index, no
C-condition, no bytes and no per-slot plan.  A user may combine signals or
use one meant for another user, so this is linear decoding, which serves
every demand the simulator's one signal per coded cell serves, and more.
"""

from __future__ import annotations


def _reduced(basis: dict[int, int], x: int) -> int:
    """``x`` minus the span of ``basis`` (vectors keyed by their top bit):
    0 exactly when ``x`` is in that span."""
    while x and (top := x.bit_length()) in basis:
        x ^= basis[top]
    return x


def decodes(p, d: tuple[int, ...], b: tuple[int, ...], l: int) -> bool:
    """Whether array ``p`` serves the demand of files ``d`` and start blocks
    ``b`` (in range, with ``l`` blocks a file) by linear decoding."""
    f, files = p.f, max(d) + 1

    def bit(file: int, block: int, h: int) -> int:
        return 1 << (file * l + block) * f + h

    signals: dict[int, int] = {}
    senders: dict[int, int] = {}
    for i, row in enumerate(p.grid):
        for j, e in enumerate(row):
            if e is not None:
                signals[e.slot] = signals.get(e.slot, 0) ^ bit(d[j], b[j] + i // f, i % f)
                senders[e.slot] = e.sender
    caches = [sum(bit(file, block, h) for file in range(files) for block in range(l)
                  for h in range(f) if p.grid[h][k] is None) for k in range(p.k)]
    if len(signals) < p.s or any(x & ~caches[senders[s]] for s, x in signals.items()):
        return False
    for k, cache in enumerate(caches):
        basis: dict[int, int] = {}
        for x in signals.values():
            if x := _reduced(basis, x & ~cache):
                basis[x.bit_length()] = x
        for i in range(len(p.grid)):
            want = bit(d[k], b[k] + i // f, i % f)
            if not want & cache and _reduced(basis, want):
                return False
    return True
