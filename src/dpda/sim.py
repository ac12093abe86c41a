"""Packet-level execution of the caching protocol encoded by a DPDA.

Placement is the array's star pattern: user j caches packet h of every file
and block when row h of column j is a star.  Delivery sends one XOR signal
per slot (slot s groups the entries ``s^k``, broadcast by user k); decoding
lets every user recover its requested blocks from the signals and its cache.

File content is synthetic but deterministic: byte ``o`` of packet
``(file i, block l, packet h)`` is ``(i*31 + l*17 + h*7 + o) mod 256``,
so independent runs (and independent implementations of this rule) agree
byte-for-byte without sharing a random generator.  A packet is fixed by
its first byte, so at most 256 distinct packets exist.

A cache is never stored: it is the user's star rows plus the byte rule.
Which cells each slot mixes, who sends it, whether the sender caches them,
which side packets each user strips and whether it caches them depend on the
array alone, so :func:`simulate` plans them once per run.  A trial touches
only the demanded packets: it looks up the K requests' packet integers,
XORs them per slot, strips each user's side packets and compares every
recovered integer with the expected one.  A packet is a little-endian
integer of width ``packet_size``, so two integers are equal exactly when
their bytes are.  :func:`deliver` and :func:`decode` plan for their one call
and run the same core; decoders never read a signal's audit-only
``constituents``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping, Sequence

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

    def _first(self, i: int, block: int, h: int) -> int:
        """The first byte of packet (i, block, h), which fixes the packet."""
        if not (0 <= i < self.n and 0 <= block < self.l and 0 <= h < self.f):
            raise ValueError(f"packet id {(i, block, h)} outside the library")
        return (i * 31 + block * 17 + h * 7) % 256

    def packet(self, i: int, block: int, h: int) -> bytes:
        first = self._first(i, block, h)
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


# Demand-free plans, derived from the array once per run and shared by every
# trial.  A cell (i, j) is row i of column j; for a demand it carries packet
# (d_j, b_j + i // F, i % F), formed by _pid only when an error names it.
_Cell = tuple[int, int]
_Slot = tuple[int, tuple[_Cell, ...], _Cell | None]
_Side = tuple[int, int, bool, int | None]
_Row = tuple[int | None, bool, tuple[_Side, ...]]


def _pid(dem: Demand, f: int, i: int, j: int) -> PacketId:
    return dem.d[j], dem.b[j] + i // f, i % f


def _slot_plan(p: Dpda, cells: Mapping[int, list[_Cell]],
               caches: Caches) -> tuple[_Slot | None, ...]:
    """Per slot: its sender, its cells, and the first cell whose packet the
    sender does not cache (or None); None when the slot never occurs."""
    plan: list[_Slot | None] = []
    for s in range(p.s):
        occ = cells.get(s)
        if not occ:
            plan.append(None)
            continue
        sender = p.grid[occ[0][0]][occ[0][1]].sender
        held = caches.users[sender]
        lacking = next(((i, j) for i, j in occ if i % p.f not in held), None)
        plan.append((sender, tuple(occ), lacking))
    return tuple(plan)


def _user_plan(p: Dpda, cells: Mapping[int, list[_Cell]], k: int,
               held: Callable[[int, int], bool]) -> tuple[_Row, ...]:
    """Per row i of column ``k``: its slot (None for a star), whether user k
    holds the row's own packet, and the slot's other cells as (column, row,
    held, shift).  ``held(i, j)`` says whether user k holds cell (i, j)'s
    packet.  Only a cell in the same in-band row can carry the wanted packet
    itself, exactly when its start block is b_k + shift; other cells have
    shift None."""
    f = p.f
    rows = []
    for i, row in enumerate(p.grid):
        e = row[k]
        sides: tuple[_Side, ...] = ()
        if e is not None:
            sides = tuple((j2, i2, held(i2, j2), i // f - i2 // f if i2 % f == i % f else None)
                          for i2, j2 in cells[e.slot] if (i2, j2) != (i, k))
        rows.append((None if e is None else e.slot, held(i, k), sides))
    return tuple(rows)


def _packet_table(lib: Library, lp: int, f: int) -> Callable[[int, int], list[int]]:
    """A run-local memo from a request (file, start block) to the L'F packet
    integers it asks for, in row order.

    A request's packets are fixed by the first byte of its first one, which
    keys the memo, so at most 256 rows are kept.  Each integer is derived
    once per distinct packet and shared by every row, so at most
    min(256, N*L*F) are held however many files and trials there are.
    """
    size, ramp = lib.packet_size, lib._ramp
    ints: dict[int, int] = {}
    rows: dict[int, list[int]] = {}

    def request(i: int, start: int) -> list[int]:
        key = lib._first(i, start, 0)
        row = rows.get(key)
        if row is None:
            firsts = [lib._first(i, start + band, h) for band in range(lp) for h in range(f)]
            for first in firsts:
                if first not in ints:
                    ints[first] = int.from_bytes(ramp[first:first + size], "little")
            row = rows[key] = [ints[first] for first in firsts]
        return row

    return request


def _deliver(slots: tuple[_Slot | None, ...], known: Sequence[Sequence[int]],
             dem: Demand, f: int) -> list[int]:
    """The payload integer of every slot, in slot order; ``known[j][i]`` is
    the packet integer of cell (i, j)."""
    payloads = []
    for s, plan in enumerate(slots):
        if plan is None:
            raise SimulationError(f"slot {s} never occurs; cannot schedule its broadcast")
        sender, occ, lacking = plan
        if lacking is not None:
            i, j = lacking
            raise SimulationError(
                f"sender {sender} lacks packet {_pid(dem, f, i, j)} needed for slot {s} "
                f"(entry at row {i}, column {j})"
            )
        x = 0
        for i, j in occ:
            x ^= known[j][i]
        payloads.append(x)
    return payloads


def _decode(rows: tuple[_Row, ...], known: Sequence[Sequence[int | None]],
            payloads: Mapping[int, int] | Sequence[int], dem: Demand, k: int,
            f: int) -> list[int]:
    """User ``k``'s recovered packet integers, in row order: a star row's
    from ``known``, a coded row's from its slot's payload with the side
    packets XORed out."""
    d, b = dem.d, dem.b
    dk, bk = d[k], b[k]
    got = []
    for i, (slot, held, sides) in enumerate(rows):
        if slot is None:
            if not held:
                raise SimulationError(
                    f"user {k} should have cached {_pid(dem, f, i, k)} but has not")
            got.append(known[k][i])
            continue
        try:
            x = payloads[slot]
        except LookupError:
            raise SimulationError(f"signal for slot {slot} missing") from None
        for j2, i2, held2, shift in sides:
            if shift is not None and d[j2] == dk and b[j2] == bk + shift:
                # a side packet identical to the wanted one cancels inside
                # the XOR; valid arrays cannot produce this
                raise SimulationError(
                    f"slot {slot} mixes packet {_pid(dem, f, i, k)} twice; array is not decodable"
                )
            if not held2:
                raise SimulationError(
                    f"user {k} cannot remove uncached packet {_pid(dem, f, i2, j2)} "
                    f"from slot {slot}"
                )
            x ^= known[j2][i2]
        got.append(x)
    return got


def deliver(p: Dpda, caches: Caches, lib: Library, dem: Demand) -> list[Signal]:
    """Produce the S broadcast signals for a demand, in slot order.

    Signal s XORs, over every cell (i, j) carrying slot s, the packet
    (d_j, b_j + i//F, i mod F).  Every constituent must already sit in the
    sender's cache; a miss means the array is not a valid DPDA and raises
    :class:`SimulationError`.
    """
    _check_demand(dem, p.k, lib.n, lib.l, p.lp)
    slots = _slot_plan(p, slot_cells(p), caches)
    request = _packet_table(lib, p.lp, p.f)
    known = [request(dj, bj) for dj, bj in zip(dem.d, dem.b)]
    payloads = _deliver(slots, known, dem, p.f)
    return [Signal(slot=s, sender=plan[0],
                   payload=x.to_bytes(lib.packet_size, "little"),
                   constituents=tuple(_pid(dem, p.f, i, j) for i, j in plan[1]))
            for s, (plan, x) in enumerate(zip(slots, payloads))]


def decode(p: Dpda, cache_k: Mapping[PacketId, bytes], signals: Sequence[Signal],
           dem: Demand, k: int) -> dict[PacketId, bytes]:
    """Recover user ``k``'s requested packets (d_k, b_k + l, h) for l in
    [0, L'), h in [0, F).

    Uses only the array, the demand, the user's own cached bytes and the
    signal payloads; constituent ids are re-derived from the array, never
    read from the signals' audit lists.
    """
    f = p.f
    cached = [[cache_k.get(_pid(dem, f, i, j)) for i in range(p.rows)] for j in range(p.k)]
    known = [[None if v is None else int.from_bytes(v, "little") for v in col]
             for col in cached]
    rows = _user_plan(p, slot_cells(p), k, lambda i, j: cached[j][i] is not None)
    by_slot = {sig.slot: sig.payload for sig in signals}
    got = _decode(rows, known, {s: int.from_bytes(v, "little") for s, v in by_slot.items()},
                  dem, k, f)
    return {_pid(dem, f, i, k): cached[k][i] if slot is None
            else x.to_bytes(len(by_slot[slot]), "little")
            for i, ((slot, _held, _sides), x) in enumerate(zip(rows, got))}


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
    uniformly sampled demands, deterministic from ``seed``, each drawn when
    its trial starts) must be given.  The cache size in files, Z*N/F, is
    reported exactly as a fraction; it need not be an integer.  Every packet
    of every user is compared with the library in every trial.
    """
    if l < p.lp:
        raise ValueError(f"need L >= L', got L={l}, L'={p.lp}")
    if (demand is None) == (trials is None):
        raise ValueError("provide exactly one of demand= or trials=")
    lib = make_library(n, l, p.f, packet_size)
    caches = place(p, lib)
    count = 1 if trials is None else trials
    if count < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    k_users, f, starts = p.k, p.f, l - p.lp + 1
    cells = slot_cells(p)
    slots = _slot_plan(p, cells, caches)
    plans = [_user_plan(p, cells, k, lambda i, j, star_rows=star_rows: i % f in star_rows)
             for k, star_rows in enumerate(caches.users)]
    request = _packet_table(lib, p.lp, f)
    failures: list[dict] = []
    delivered = False
    for run in range(count):
        dem = demand if demand is not None else Demand(
            d=tuple(rng.randrange(n) for _ in range(k_users)),
            b=tuple(rng.randrange(starts) for _ in range(k_users)))
        try:
            _check_demand(dem, k_users, n, l, p.lp)
            known = [request(dj, bj) for dj, bj in zip(dem.d, dem.b)]
            payloads = _deliver(slots, known, dem, f)
        except (SimulationError, ValueError) as exc:
            failures.append({"trial": run, "demand": [list(dem.d), list(dem.b)],
                             "error": str(exc)})
            continue
        delivered = True
        for k, rows in enumerate(plans):
            try:
                got = _decode(rows, known, payloads, dem, k, f)
            except SimulationError as exc:
                failures.append({"trial": run, "user": k, "error": str(exc)})
                continue
            expect = known[k]
            if got != expect:  # name every packet that differs, in row order
                failures.extend({"trial": run, "user": k, "packet": list(_pid(dem, f, i, k)),
                                 "error": "byte mismatch"}
                                for i, (x, y) in enumerate(zip(got, expect)) if x != y)
    packets_sent = p.s if delivered else 0
    return SimReport(
        success=not failures,
        packets_sent=packets_sent,
        rate=Fraction(packets_sent, p.lp * p.f),
        trials=count,
        failures=tuple(failures),
        memory_files=Fraction(p.z * n, p.f),
    )
