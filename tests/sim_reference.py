"""Reference protocol loops for differential tests of :mod:`dpda.sim`.

These are the simulator's earlier per-call loops and records, its former
materialised library and caches and one-demand steps included: a
:class:`Library` record slices each packet from its ramp, ``place``
copies each user's star rows into a :class:`Caches` record,
``user_cache_bytes`` stores a user's cache as a dict of packet bytes,
``deliver`` returns one demand's :class:`Signal` list and ``decode`` one
user's recovered packets, each indexing the array itself on every call
(``validation_reference.slot_cells``, a scan independent of ``Dpda``'s
own index) and raising :class:`SimulationError` on a state only an
invalid array can produce; ``simulate`` runs them one trial at a time and
compares each recovered packet with the library one by one.  The tests
check ``Library.packet`` against the byte rule written out byte by byte,
and ``deliver`` and ``decode`` against ``Library.packet`` on worked
scenarios and on every demand of a small array.
``dpda.sim.simulate`` stores neither: it plans and checks the slots and
each user's decoding once per run, reading placement from band 0 of the
grid, and runs the trials in chunks whose cells are wide integers, built
from the byte rule, holding every trial's packet; its reports must equal
these, failures, their messages and their order across chunks included.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from dpda import Dpda
from dpda.core import _Record
from dpda.sim import Demand, PacketId, SimReport

from validation_reference import slot_cells


class Library(_Record):
    """Deterministic packetized corpus: n files, l blocks, f packets per block.

    A packet is fixed by its first byte b: it is ``_ramp[b:b + packet_size]``
    of the ramp 0, 1, ..., 255, 0, 1, ...  The ramp is all the library
    stores; each request slices its packet afresh.
    """

    n: int
    l: int
    f: int
    packet_size: int
    _ramp: bytes

    def packet(self, i: int, block: int, h: int) -> bytes:
        if not (0 <= i < self.n and 0 <= block < self.l and 0 <= h < self.f):
            raise ValueError(f"packet id {(i, block, h)} outside the library")
        first = (i * 31 + block * 17 + h * 7) % 256  # fixes the packet
        return self._ramp[first:first + self.packet_size]


def make_library(n: int, l: int, f: int, packet_size: int = 64) -> Library:
    """Define the corpus; byte o of packet (i, l, h) is (i*31+l*17+h*7+o) mod 256."""
    if min(n, l, f, packet_size) < 1:
        raise ValueError("N, L, F and packet_size must all be >= 1")
    ramp = bytes(range(256)) * (packet_size // 256 + 2)
    return Library(n=n, l=l, f=f, packet_size=packet_size, _ramp=ramp)


class Caches(_Record):
    """Per-user star rows: user j caches packet (i, l, h) iff h is in ``users[j]``."""

    users: tuple[frozenset[int], ...]


def place(p: Dpda, lib: Library) -> Caches:
    """Fill caches: user j's star rows are the first-band rows h whose entry
    in column j is a star."""
    if lib.f != p.f:
        raise ValueError(f"library has {lib.f} packets per block, array needs {p.f}")
    return Caches(users=tuple(
        frozenset(h for h in range(p.f) if p.grid[h][j] is None) for j in range(p.k)
    ))


class SimulationError(RuntimeError):
    """Protocol execution hit a state only an invalid array can produce."""


class Signal(_Record):
    """One broadcast: XOR payload for a slot, plus an audit-only constituent list."""

    slot: int
    sender: int
    payload: bytes
    constituents: tuple[PacketId, ...]


def user_cache_bytes(lib: Library, caches: Caches, k: int) -> dict[PacketId, bytes]:
    """The cached content of user ``k``, one packet per id."""
    return {(i, block, h): lib.packet(i, block, h) for i in range(lib.n)
            for block in range(lib.l) for h in caches.users[k]}


def check_demand(dem: Demand, k: int, n: int, l: int, lp: int) -> None:
    if len(dem.d) != k:
        raise ValueError(f"demand is for {len(dem.d)} users, array has {k}")
    for j, (dj, bj) in enumerate(zip(dem.d, dem.b)):
        if not 0 <= dj < n:
            raise ValueError(f"user {j}: file {dj} out of range [0,{n})")
        if not 0 <= bj <= l - lp:
            raise ValueError(f"user {j}: start block {bj} out of range [0,{l - lp}]")


def deliver(p: Dpda, caches: Caches, lib: Library, dem: Demand) -> list[Signal]:
    check_demand(dem, p.k, lib.n, lib.l, p.lp)
    cells = slot_cells(p)
    signals = []
    for s in range(p.s):
        occ = cells.get(s)
        if not occ:
            raise SimulationError(f"slot {s} never occurs; cannot schedule its broadcast")
        sender = p.grid[occ[0][0]][occ[0][1]].sender
        payload = 0
        constituents = []
        for i, j in occ:
            h = i % p.f
            pid = (dem.d[j], dem.b[j] + i // p.f, h)
            if h not in caches.users[sender]:
                raise SimulationError(
                    f"sender {sender} lacks packet {pid} needed for slot {s} "
                    f"(entry at row {i}, column {j})"
                )
            constituents.append(pid)
            payload ^= int.from_bytes(lib.packet(*pid), "little")
        signals.append(Signal(slot=s, sender=sender,
                              payload=payload.to_bytes(lib.packet_size, "little"),
                              constituents=tuple(constituents)))
    return signals


def decode(p: Dpda, cache_k: Mapping[PacketId, bytes], signals: Sequence[Signal],
           dem: Demand, k: int) -> dict[PacketId, bytes]:
    by_slot = {sig.slot: sig for sig in signals}
    cells = slot_cells(p)
    recovered: dict[PacketId, bytes] = {}
    for i in range(p.lp * p.f):
        want: PacketId = (dem.d[k], dem.b[k] + i // p.f, i % p.f)
        e = p.grid[i][k]
        if e is None:
            if want not in cache_k:
                raise SimulationError(f"user {k} should have cached {want} but has not")
            recovered[want] = cache_k[want]
            continue
        try:
            payload = by_slot[e.slot].payload
        except KeyError:
            raise SimulationError(f"signal for slot {e.slot} missing") from None
        x = int.from_bytes(payload, "little")
        for i2, j2 in cells[e.slot]:
            if (i2, j2) == (i, k):
                continue
            other: PacketId = (dem.d[j2], dem.b[j2] + i2 // p.f, i2 % p.f)
            if other == want:
                raise SimulationError(
                    f"slot {e.slot} mixes packet {want} twice; array is not decodable"
                )
            if other not in cache_k:
                raise SimulationError(
                    f"user {k} cannot remove uncached packet {other} from slot {e.slot}"
                )
            x ^= int.from_bytes(cache_k[other], "little")
        recovered[want] = x.to_bytes(len(payload), "little")
    return recovered


def simulate(p: Dpda, n: int, l: int, packet_size: int = 64, *,
             demand: Demand | None = None, trials: int | None = None,
             seed: int = 0) -> SimReport:
    if l < p.lp:
        raise ValueError(f"need L >= L', got L={l}, L'={p.lp}")
    if (demand is None) == (trials is None):
        raise ValueError("provide exactly one of demand= or trials=")
    lib = make_library(n, l, p.f, packet_size)
    caches = place(p, lib)
    cache_bytes = [user_cache_bytes(lib, caches, k) for k in range(p.k)]
    if demand is not None:
        demands = [demand]
    else:
        if trials < 1:
            raise ValueError("trials must be >= 1")
        rng = random.Random(seed)
        demands = [
            Demand(
                d=tuple(rng.randrange(n) for _ in range(p.k)),
                b=tuple(rng.randrange(l - p.lp + 1) for _ in range(p.k)),
            )
            for _ in range(trials)
        ]
    failures: list[dict] = []
    sent: set[int] = set()
    for run, dem in enumerate(demands):
        try:
            signals = deliver(p, caches, lib, dem)
        except (SimulationError, ValueError) as exc:
            failures.append({"trial": run, "demand": [list(dem.d), list(dem.b)],
                             "error": str(exc)})
            continue
        sent.add(len(signals))
        for k in range(p.k):
            try:
                got = decode(p, cache_bytes[k], signals, dem, k)
            except SimulationError as exc:
                failures.append({"trial": run, "user": k, "error": str(exc)})
                continue
            for i in range(p.lp * p.f):
                pid: PacketId = (dem.d[k], dem.b[k] + i // p.f, i % p.f)
                if got.get(pid) != lib.packet(*pid):
                    failures.append({"trial": run, "user": k,
                                     "packet": list(pid), "error": "byte mismatch"})
    if len(sent) > 1:
        raise AssertionError(f"per-demand transmissions differ: {sorted(sent)}")
    return SimReport(
        success=not failures,
        packets_sent=sent.pop() if sent else 0,
        trials=len(demands),
        failures=tuple(failures),
    )
