"""Packet-level execution of the caching protocol encoded by a DPDA.

Placement is the array's star pattern: user j caches packet h of every file
and block when row h of column j is a star.  Delivery sends one XOR signal
per slot (slot s groups the entries ``s^k``, broadcast by user k); decoding
lets every user recover its requested blocks from the signals and its cache.

File content is synthetic but deterministic: byte ``o`` of packet
``(file i, block l, packet h)`` is ``(i*31 + l*17 + h*7 + o) mod 256``,
so independent runs (and independent implementations of this rule) agree
byte-for-byte without sharing a random generator.

Decoders re-derive each signal's constituent packet ids from the array and
the demand; the audit ``constituents`` field on :class:`Signal` exists for
inspection only and is never read during decoding.

Which cells each slot mixes, who sends it, and which side packets each user
strips from it are fixed by the array alone.  :func:`simulate` derives these
slot and decode plans once per run, so a trial only forms the demand's packet
ids, XORs them and checks the result; :func:`deliver` and :func:`decode` plan
for their one call and run the same code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .core import Dpda, _Record, _set, slot_cells

__all__ = [
    "PacketId",
    "Library",
    "Caches",
    "Demand",
    "Signal",
    "SimReport",
    "SimulationError",
    "make_library",
    "place",
    "user_cache_bytes",
    "deliver",
    "decode",
    "simulate",
]

PacketId = tuple[int, int, int]  # (file, block, packet)


class SimulationError(RuntimeError):
    """Protocol execution hit a state only an invalid array can produce."""


class Library(_Record):
    """Deterministic packetized corpus: n files, l blocks, f packets per block.

    A packet is fixed by its first byte b: it is ``_ramp[b:b + packet_size]``
    of the ramp 0, 1, ..., 255, 0, 1, ...  Each is sliced on first request and
    shared by every id starting with b, so at most min(256, N*L*F) are held.
    """

    n: int
    l: int
    f: int
    packet_size: int
    _ramp: bytes
    _packets: dict[int, bytes]

    __eq__ = object.__eq__  # identity: each library owns its packet memo
    __hash__ = object.__hash__

    def __init__(self, n: int, l: int, f: int, packet_size: int, _ramp: bytes,
                 _packets: dict[int, bytes] | None = None) -> None:
        super().__init__(n, l, f, packet_size, _ramp, {} if _packets is None else _packets)

    def packet(self, i: int, block: int, h: int) -> bytes:
        if not (0 <= i < self.n and 0 <= block < self.l and 0 <= h < self.f):
            raise ValueError(f"packet id {(i, block, h)} outside the library")
        first = (i * 31 + block * 17 + h * 7) % 256
        pkt = self._packets.get(first)
        if pkt is None:
            pkt = self._packets[first] = self._ramp[first:first + self.packet_size]
        return pkt


def make_library(n: int, l: int, f: int, packet_size: int = 64) -> Library:
    """Define the corpus; byte o of packet (i, l, h) is (i*31+l*17+h*7+o) mod 256."""
    if min(n, l, f, packet_size) < 1:
        raise ValueError("N, L, F and packet_size must all be >= 1")
    ramp = bytes(range(256)) * (packet_size // 256 + 2)
    return Library(n=n, l=l, f=f, packet_size=packet_size, _ramp=ramp)


class Caches(_Record):
    """Per-user star rows: user j caches packet (i, l, h) iff h is in ``users[j]``."""

    users: tuple[frozenset[int], ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def place(p: Dpda, lib: Library) -> Caches:
    """Fill caches: user j's star rows are the first-band rows h whose entry
    in column j is a star."""
    if lib.f != p.f:
        raise ValueError(f"library has {lib.f} packets per block, array needs {p.f}")
    return Caches(users=tuple(
        frozenset(h for h in range(p.f) if p.grid[h][j] is None) for j in range(p.k)
    ))


def user_cache_bytes(lib: Library, caches: Caches, k: int) -> dict[PacketId, bytes]:
    """The cached content of user ``k``; values are the library's shared packets."""
    return {(i, block, h): lib.packet(i, block, h) for i in range(lib.n)
            for block in range(lib.l) for h in caches.users[k]}


class Demand(_Record):
    """Per-user requests: file indices ``d`` and start blocks ``b``."""

    d: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, d: Sequence[int], b: Sequence[int]) -> None:
        d, b = tuple(d), tuple(b)
        if len(d) != len(b):
            raise ValueError("d and b must have equal length")
        _set(self, "d", d)
        _set(self, "b", b)


def _check_demand(dem: Demand, k: int, n: int, l: int, lp: int) -> None:
    if len(dem.d) != k:
        raise ValueError(f"demand is for {len(dem.d)} users, array has {k}")
    for j, (dj, bj) in enumerate(zip(dem.d, dem.b)):
        if not 0 <= dj < n:
            raise ValueError(f"user {j}: file {dj} out of range [0,{n})")
        if not 0 <= bj <= l - lp:
            raise ValueError(f"user {j}: start block {bj} out of range [0,{l - lp}]")


class Signal(_Record):
    """One broadcast: XOR payload for a slot, plus an audit-only constituent list."""

    slot: int
    sender: int
    payload: bytes
    constituents: tuple[PacketId, ...]

    def __init__(self, slot: int, sender: int, payload: bytes,
                 constituents: tuple[PacketId, ...]) -> None:
        _set(self, "slot", slot)
        _set(self, "sender", sender)
        _set(self, "payload", payload)
        _set(self, "constituents", constituents)


# Demand-free plans: derived from the array once per run, shared by every trial.
_Cell = tuple[int, int, int, int]  # (row, column, band, in-band row h)
_SlotPlan = tuple[tuple[int, tuple[_Cell, ...]] | None, ...]  # per slot: (sender, cells)
_Row = tuple[int, int, int | None, tuple[tuple[int, int, int], ...]]  # see _user_plan


def _slot_plan(p: Dpda, cells: Mapping[int, list[tuple[int, int]]]) -> _SlotPlan:
    """Per slot: its sender and its cells, or None when the slot never occurs."""
    plan = []
    for s in range(p.s):
        occ = cells.get(s)
        if occ:
            sender = p.grid[occ[0][0]][occ[0][1]].sender
            plan.append((sender, tuple((i, j, *divmod(i, p.f)) for i, j in occ)))
        else:
            plan.append(None)
    return tuple(plan)


def _user_plan(p: Dpda, cells: Mapping[int, list[tuple[int, int]]], k: int) -> tuple[_Row, ...]:
    """Per row i of column ``k``: (band, h, slot or None for a star, and the
    other cells (column, band, h) of that slot)."""
    rows = []
    for i, row in enumerate(p.grid):
        band, h = divmod(i, p.f)
        e = row[k]
        if e is None:
            rows.append((band, h, None, ()))
        else:
            rows.append((band, h, e.slot, tuple((j2, *divmod(i2, p.f))
                                                for i2, j2 in cells[e.slot]
                                                if (i2, j2) != (i, k))))
    return tuple(rows)


def _deliver(slots: _SlotPlan, caches: Caches, lib: Library, dem: Demand) -> list[Signal]:
    d, b = dem.d, dem.b
    signals = []
    for s, plan in enumerate(slots):
        if plan is None:
            raise SimulationError(f"slot {s} never occurs; cannot schedule its broadcast")
        sender, occ = plan
        cached = caches.users[sender]
        payload = 0
        constituents = []
        for i, j, band, h in occ:
            pid = (d[j], b[j] + band, h)
            if h not in cached:
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


def _decode(rows: tuple[_Row, ...], cache_k: Mapping[PacketId, bytes],
            by_slot: Mapping[int, bytes], dem: Demand, k: int) -> dict[PacketId, bytes]:
    d, b = dem.d, dem.b
    dk, bk = d[k], b[k]
    recovered: dict[PacketId, bytes] = {}
    for band, h, slot, others in rows:
        want: PacketId = (dk, bk + band, h)
        if slot is None:
            try:
                recovered[want] = cache_k[want]
            except KeyError:
                raise SimulationError(f"user {k} should have cached {want} but has not") from None
            continue
        try:
            payload = by_slot[slot]
        except KeyError:
            raise SimulationError(f"signal for slot {slot} missing") from None
        x = int.from_bytes(payload, "little")
        for j2, band2, h2 in others:
            other: PacketId = (d[j2], b[j2] + band2, h2)
            if other == want:
                # a side packet identical to the wanted one cancels inside
                # the XOR; valid arrays cannot produce this
                raise SimulationError(
                    f"slot {slot} mixes packet {want} twice; array is not decodable"
                )
            try:
                x ^= int.from_bytes(cache_k[other], "little")
            except KeyError:
                raise SimulationError(
                    f"user {k} cannot remove uncached packet {other} from slot {slot}"
                ) from None
        recovered[want] = x.to_bytes(len(payload), "little")
    return recovered


def deliver(p: Dpda, caches: Caches, lib: Library, dem: Demand) -> list[Signal]:
    """Produce the S broadcast signals for a demand, in slot order.

    Signal s XORs, over every cell (i, j) carrying slot s, the packet
    (d_j, b_j + i//F, i mod F).  Every constituent must already sit in the
    sender's cache; a miss means the array is not a valid DPDA and raises
    :class:`SimulationError`.
    """
    _check_demand(dem, p.k, lib.n, lib.l, p.lp)
    return _deliver(_slot_plan(p, slot_cells(p)), caches, lib, dem)


def decode(p: Dpda, cache_k: Mapping[PacketId, bytes], signals: Sequence[Signal],
           dem: Demand, k: int) -> dict[PacketId, bytes]:
    """Recover user ``k``'s requested packets (d_k, b_k + l, h) for l in
    [0, L'), h in [0, F).

    Uses only the array, the demand, the user's own cached bytes and the
    signal payloads; constituent ids are re-derived from the array, never
    read from the signals' audit lists.
    """
    by_slot = {sig.slot: sig.payload for sig in signals}
    return _decode(_user_plan(p, slot_cells(p), k), cache_k, by_slot, dem, k)


class SimReport(_Record):
    """Outcome of one or many protocol runs on a fixed array and library."""

    success: bool
    packets_sent: int
    rate: Fraction
    trials: int
    failures: tuple[dict, ...]
    memory_files: Fraction

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "packets_sent": self.packets_sent,
            "rate": str(self.rate),
            "trials": self.trials,
            "failures": list(self.failures),
            "memory_files": str(self.memory_files),
        }


def simulate(p: Dpda, n: int, l: int, packet_size: int = 64, *,
             demand: Demand | None = None, trials: int | None = None,
             seed: int = 0) -> SimReport:
    """Run place -> deliver -> decode and verify byte-exact recovery.

    Exactly one of ``demand`` (a single run) or ``trials`` (that many
    uniformly sampled demands, deterministic from ``seed``) must be given.
    The cache size in files, Z*N/F, is reported exactly as a fraction; it
    need not be an integer.  Every packet of every user is compared with the
    library in every trial; the expected packets of each (file, start block)
    are gathered once per run.
    """
    if l < p.lp:
        raise ValueError(f"need L >= L', got L={l}, L'={p.lp}")
    if (demand is None) == (trials is None):
        raise ValueError("provide exactly one of demand= or trials=")
    lib = make_library(n, l, p.f, packet_size)
    caches = place(p, lib)
    cache_bytes = [user_cache_bytes(lib, caches, k) for k in range(p.k)]
    if demand is not None:
        demands: Iterable[Demand] = [demand]
        count = 1
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
        count = trials
    cells = slot_cells(p)
    slots = _slot_plan(p, cells)
    plans = [_user_plan(p, cells, k) for k in range(p.k)]
    expected: dict[tuple[int, int], dict[PacketId, bytes]] = {}  # by (file, start block)
    failures: list[dict] = []
    sent: set[int] = set()
    for run, dem in enumerate(demands):
        try:
            _check_demand(dem, p.k, n, l, p.lp)
            signals = _deliver(slots, caches, lib, dem)
        except (SimulationError, ValueError) as exc:
            failures.append({"trial": run, "demand": [list(dem.d), list(dem.b)],
                             "error": str(exc)})
            continue
        sent.add(len(signals))
        by_slot = {sig.slot: sig.payload for sig in signals}
        for k, rows in enumerate(plans):
            try:
                got = _decode(rows, cache_bytes[k], by_slot, dem, k)
            except SimulationError as exc:
                failures.append({"trial": run, "user": k, "error": str(exc)})
                continue
            dk, bk = dem.d[k], dem.b[k]
            expect = expected.get((dk, bk))
            if expect is None:
                expect = expected[dk, bk] = {(dk, bk + band, h): lib.packet(dk, bk + band, h)
                                             for band, h, _slot, _others in rows}
            if got != expect:  # name every packet that differs, in row order
                failures.extend({"trial": run, "user": k, "packet": list(pid),
                                 "error": "byte mismatch"}
                                for pid, packet in expect.items() if got.get(pid) != packet)
    if len(sent) > 1:
        raise AssertionError(f"per-demand transmissions differ: {sorted(sent)}")
    packets_sent = sent.pop() if sent else 0
    return SimReport(
        success=not failures,
        packets_sent=packets_sent,
        rate=Fraction(packets_sent, p.lp * p.f),
        trials=count,
        failures=tuple(failures),
        memory_files=Fraction(p.z * n, p.f),
    )
