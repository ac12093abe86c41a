"""The protocol one demand at a time: a user's cache, the broadcast, decoding.

:func:`deliver` and :func:`decode` run the chunk core of :mod:`dpda.sim` on
a one-trial chunk and return what :func:`~dpda.sim.simulate` only checks:
the signals with their payload bytes and the packets a user recovers.
Decoders never read a signal's audit-only ``constituents``.  A state only an
invalid array can produce raises :class:`SimulationError`.

This module loads on the first use of one of its names, so a ``simulate``
run never compiles it.  ``dpda.sim`` and ``dpda`` answer for all five
names: ``dpda.deliver``, ``dpda.sim.deliver`` and ``dpda.steps.deliver``
are one function.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import Dpda, _Record, slot_cells
from .sim import (Caches, Demand, Library, PacketId, _check_demand, _packets, _payloads,
                  _pid, _recover, _refusal, _say, _slot_plan, _user_plan)

__all__ = ["Signal", "SimulationError", "user_cache_bytes", "deliver", "decode"]


class SimulationError(RuntimeError):
    """Protocol execution hit a state only an invalid array can produce."""


class Signal(_Record):
    """One broadcast: XOR payload for a slot, plus an audit-only constituent list."""

    slot: int
    sender: int
    payload: bytes
    constituents: tuple[PacketId, ...]


def user_cache_bytes(lib: Library, caches: Caches, k: int) -> dict[PacketId, bytes]:
    """The cached content of user ``k``; values are the library's shared packets."""
    return {(i, block, h): lib.packet(i, block, h) for i in range(lib.n)
            for block in range(lib.l) for h in caches.users[k]}


def deliver(p: Dpda, caches: Caches, lib: Library, dem: Demand) -> list[Signal]:
    """Produce the S broadcast signals for a demand, in slot order.

    Signal s XORs, over every cell (i, j) carrying slot s, the packet
    (d_j, b_j + i//F, i mod F).  Every constituent must already sit in the
    sender's cache; a miss means the array is not a valid DPDA and raises
    :class:`SimulationError`.
    """
    _check_demand(dem, p.k, lib.n, lib.l, p.lp)
    cells = slot_cells(p)
    mix, senders, fault = _slot_plan(p, cells, caches)
    if fault is not None:
        raise SimulationError(_say(fault, dem, p.f))
    return [Signal(slot=s, sender=senders[s], payload=x.to_bytes(lib.packet_size, "little"),
                   constituents=tuple(_pid(dem, p.f, i, j) for i, j in cells[s]))
            for s, x in enumerate(_payloads(mix, _packets(lib, p.lp, p.f, [dem], {})))]


def decode(p: Dpda, cache_k: Mapping[PacketId, bytes], signals: Sequence[Signal],
           dem: Demand, k: int) -> dict[PacketId, bytes]:
    """Recover user ``k``'s requested packets (d_k, b_k + l, h) for l in
    [0, L'), h in [0, F).

    Uses only the array, the demand, the user's own cached bytes and the
    signal payloads; constituent ids are re-derived from the array, never
    read from the signals' audit lists.
    """
    f, nrows = p.f, p.rows
    cached = [cache_k.get(_pid(dem, f, i, j)) for j in range(p.k) for i in range(nrows)]
    by_slot = {sig.slot: sig.payload for sig in signals}
    plan = _user_plan(p, slot_cells(p), k, lambda i, j: cached[j * nrows + i] is not None,
                      by_slot)
    message = _refusal(plan, dem, k, f)
    if message:
        raise SimulationError(message)
    rows = plan[2]  # (slot, side cells) per row
    ints = [0 if v is None else int.from_bytes(v, "little") for v in cached]
    got = _recover(rows, ints, {s: int.from_bytes(v, "little") for s, v in by_slot.items()}, k)
    return {_pid(dem, f, i, k): cached[k * nrows + i] if slot is None
            else x.to_bytes(len(by_slot[slot]), "little")
            for i, ((slot, _sides), x) in enumerate(zip(rows, got))}
