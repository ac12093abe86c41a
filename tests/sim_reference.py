"""Reference protocol loops for differential tests of :mod:`dpda.sim`.

These are the simulator's earlier per-call loops: ``deliver`` and every
``decode`` index the array themselves (``slot_cells``) on each call,
``simulate`` stores every user's cache as a dict of packet bytes
(``user_cache_bytes``) and compares each recovered packet with the library
one by one, one trial at a time.  ``dpda.sim`` plans and checks the slots
and each user's decoding once per run, from star-row membership and the
byte rule, and runs the trials in chunks whose cells are wide integers
holding every trial's packet; its reports, signals and decodes must equal
these, failures, their messages and their order across chunks included.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

from dpda import Dpda, slot_cells
from dpda.sim import (
    Caches,
    Demand,
    Library,
    PacketId,
    Signal,
    SimReport,
    SimulationError,
    make_library,
    place,
    user_cache_bytes,
)


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
    packets_sent = sent.pop() if sent else 0
    return SimReport(
        success=not failures,
        packets_sent=packets_sent,
        rate=Fraction(packets_sent, p.lp * p.f),
        trials=len(demands),
        failures=tuple(failures),
        memory_files=Fraction(p.z * n, p.f),
    )
