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
array alone, so :func:`simulate` plans and checks them, and a caller's
demand, once per run; only same-row collisions are checked per trial (drawn
demands are in range).  Trials run in chunks that fit a byte budget, in
trial order: a cell's packets for every trial of a chunk sit side by side in
one little-endian integer, so a chunk XORs each slot, strips each user's
side packets and compares each recovered integer with the expected one
once.

This module is the trial engine.  The one-demand steps, ``deliver``,
``decode``, ``user_cache_bytes``, ``Signal`` and ``SimulationError``, run
the same core from :mod:`dpda.steps`, which a ``simulate`` run never
compiles; this module still answers for those names.  ``_cmd_simulate`` is
the ``dpda simulate`` handler of :mod:`dpda.cli`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import xor
from types import SimpleNamespace
from typing import Callable, Container, Mapping, Sequence

from .core import Dpda, _Record, _set, slot_cells

__all__ = [
    "PacketId",
    "Library",
    "Caches",
    "Demand",
    "SimReport",
    "make_library",
    "place",
    "simulate",
]

PacketId = tuple[int, int, int]  # (file, block, packet)


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
        first = (i * 31 + block * 17 + h * 7) % 256  # fixes the packet
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


class Demand(_Record):
    """Per-user requests: file indices ``d`` and start blocks ``b``."""

    __slots__ = ("d", "b")
    d: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, d: Sequence[int], b: Sequence[int]) -> None:
        d, b = tuple(d), tuple(b)
        if len(d) != len(b):
            raise ValueError("d and b must have equal length")
        _set(self, "d", d)
        _set(self, "b", b)


def _check_demand(dem: Demand, k: int, n: int, l: int, lp: int) -> None:
    if l < lp:
        raise ValueError(f"need L >= L', got L={l}, L'={lp}")
    if len(dem.d) != k:
        raise ValueError(f"demand is for {len(dem.d)} users, array has {k}")
    for j, (dj, bj) in enumerate(zip(dem.d, dem.b)):
        if not 0 <= dj < n:
            raise ValueError(f"user {j}: file {dj} out of range [0,{n})")
        if not 0 <= bj <= l - lp:
            raise ValueError(f"user {j}: start block {bj} out of range [0,{l - lp}]")


def _draw_demand(getrandbits: Callable[[int], int], bounds: list[tuple[int, int]],
                 k: int) -> Demand:
    """A uniform demand: each user's file, then each user's start block, each
    drawn below its bound as ``random.Random.randrange`` draws it (fresh
    ``getrandbits(bound.bit_length())`` until below), so the stream is the same."""
    values = []
    for bound, bits in bounds:
        x = getrandbits(bits)
        while x >= bound:
            x = getrandbits(bits)
        values.append(x)
    return Demand(values[:k], values[k:])


# Demand-free plans, derived from the array once per run and shared by every
# trial.  Cell (i, j), row i of column j, is at index j*rows + i of flat cell
# lists and carries packet (d_j, b_j + i // F, i % F).  A fault is a failure
# the array alone decides: its message, whose "{}" names a cell's packet
# (formed by _pid only then), and that cell or None.
_Cell = tuple[int, int]
_Fault = tuple[str, _Cell | None]
_Row = tuple[int | None, tuple[int, ...]]
CHUNK_BYTES = 1 << 19  # bytes a chunk's trials may take: B = this // bytes per trial


def _pid(dem: Demand, f: int, i: int, j: int) -> PacketId:
    return dem.d[j], dem.b[j] + i // f, i % f


def _say(fault: _Fault, dem: Demand, f: int) -> str:
    text, cell = fault
    return text if cell is None else text.format(_pid(dem, f, *cell))


def _slot_plan(p: Dpda, cells: Mapping[int, list[_Cell]], caches: Caches,
               ) -> tuple[list[tuple[int, ...]], list[int], _Fault | None]:
    """Each slot's cell indices and its sender, in slot order, and the fault
    of the first slot that never occurs or whose sender lacks one of its
    packets (None when every slot can be sent)."""
    mix, senders, f, rows = [], [], p.f, p.rows
    for s in range(p.s):
        occ = cells.get(s)
        if not occ:
            return mix, senders, (f"slot {s} never occurs; cannot schedule its broadcast", None)
        sender = p.grid[occ[0][0]][occ[0][1]].sender
        for i, j in occ:
            if i % f not in caches.users[sender]:
                return mix, senders, (f"sender {sender} lacks packet {{}} needed for slot {s} "
                                      f"(entry at row {i}, column {j})", (i, j))
        mix.append(tuple(j * rows + i for i, j in occ))
        senders.append(sender)
    return mix, senders, None


def _user_plan(p: Dpda, cells: Mapping[int, list[_Cell]], k: int,
               held: Callable[[int, int], bool], sent: Container[int],
               ) -> tuple[list[tuple[int, int, int, int]], _Fault | None, list[_Row]]:
    """User k's decoding, checked in row order: (clashes, fault, rows).

    ``held(i, j)`` says whether user k holds cell (i, j)'s packet, ``sent``
    which slots were broadcast.  ``fault`` is that of the first star row
    user k lacks, missing signal or side packet it cannot strip.
    ``clashes`` lists, up to it, each side cell (i2, j2) in coded row i's
    in-band row as (i, j2, shift, slot): it carries the wanted packet itself
    when b_j2 = b_k + shift.  ``rows[i]`` is row i's (slot, side cells).
    """
    f, nrows = p.f, p.rows
    clashes, rows = [], []
    for i, row in enumerate(p.grid):
        e = row[k]
        if e is None:
            if not held(i, k):
                return clashes, (f"user {k} should have cached {{}} but has not", (i, k)), rows
            rows.append((None, ()))
            continue
        if e.slot not in sent:
            return clashes, (f"signal for slot {e.slot} missing", None), rows
        sides = [(i2, j2) for i2, j2 in cells[e.slot] if (i2, j2) != (i, k)]
        for i2, j2 in sides:
            if i2 % f == i % f:
                clashes.append((i, j2, i // f - i2 // f, e.slot))
            if not held(i2, j2):
                return clashes, (f"user {k} cannot remove uncached packet {{}} "
                                 f"from slot {e.slot}", (i2, j2)), rows
        rows.append((e.slot, tuple(j2 * nrows + i2 for i2, j2 in sides)))
    return clashes, None, rows


def _refusal(plan: tuple, dem: Demand, k: int, f: int) -> str | None:
    """Why user k cannot decode ``dem`` by ``plan`` (None if it can): its
    first side packet equal to the wanted one, which would cancel inside the
    XOR (valid arrays have none), else the plan's fault."""
    clashes, fault, _rows = plan
    d, b = dem.d, dem.b
    for i, j2, shift, slot in clashes:
        if d[j2] == d[k] and b[j2] == b[k] + shift:
            return f"slot {slot} mixes packet {_pid(dem, f, i, k)} twice; array is not decodable"
    return fault and _say(fault, dem, f)


def _packets(lib: Library, lp: int, f: int, dems: list[Demand],
             memo: dict[int, int]) -> list[int]:
    """The flat cell integers of a chunk: cell (i, j)'s holds its packet for
    every trial, trial t at bytes [t*size, (t+1)*size).  Row i = band*F + h is
    the column's joined first packets plus band*17 + h*7 on every byte (mod
    256).  A one-trial chunk reads each packet from ``memo``, the run's
    packet integers by first byte, filled on first use (at most 256)."""
    size, ramp = lib.packet_size, lib._ramp
    offsets = bytes((band * 17 + h * 7) % 256 for band in range(lp) for h in range(f))
    if len(dems) == 1:  # the add below costs bulk runs more than slicing
        # ramp[y:y + 256] is the table that adds y to each byte it translates
        columns = [(d * 31 + b * 17) % 256 for d, b in zip(dems[0].d, dems[0].b)]
        firsts = b"".join([offsets.translate(ramp[y:y + 256]) for y in columns])
        for x in set(firsts).difference(memo):
            memo[x] = int.from_bytes(ramp[x:x + size], "little")
        return list(map(memo.__getitem__, firsts))
    # add on the integer, byte by byte: the low seven bits of each byte add
    # without a carry into the next byte, and the top bits XOR in
    ones = int.from_bytes(b"\1" * (len(dems) * size), "little")
    lows, tops = 0x7F * ones, 0x80 * ones
    adds = [(o, (o & 0x7F) * ones, (o & 0x80) * ones) for o in set(offsets)]
    out = []
    for firsts in zip(*[[(d * 31 + b * 17) % 256 for d, b in zip(dem.d, dem.b)] for dem in dems]):
        x = int.from_bytes(b"".join([ramp[y:y + size] for y in firsts]), "little")
        low, top = x & lows, x & tops
        row = {o: (low + add) ^ top ^ carry for o, add, carry in adds}
        out += [row[o] for o in offsets]
    return out


def _payloads(mix: list[tuple[int, ...]], ints: Sequence[int]) -> list[int]:
    """Each slot's payload integer: the XOR of its cells' integers."""
    return [reduce(xor, map(ints.__getitem__, occ)) for occ in mix]


def _recover(rows: list[_Row], ints: Sequence[int],
             payloads: Mapping[int, int] | Sequence[int], k: int) -> list[int]:
    """User ``k``'s recovered integers by row: its own, or a slot's minus side cells."""
    own, got = k * len(rows), []
    for i, (slot, sides) in enumerate(rows):
        x = ints[own + i] if slot is None else payloads[slot]
        for c in sides:  # a star row has none
            x ^= ints[c]
        got.append(x)
    return got


def _run_chunk(first: int, dems: list[Demand], plans: list, mix: list[tuple[int, ...]],
               f: int, size: int, ints: list[int]) -> list[dict]:
    """Deliver and decode trials ``first``, ``first + 1``, ... with demands
    ``dems`` and cell integers ``ints``; their failures user by user, each
    user's by row."""
    found, mask = [], (1 << 8 * size) - 1
    payloads = _payloads(mix, ints)
    for k, (clashes, stuck, rows) in enumerate(plans):
        failed = set()
        for pos, dem in enumerate(dems if clashes or stuck else ()):
            if message := _refusal(plans[k], dem, k, f):
                failed.add(pos)
                found.append({"trial": first + pos, "user": k, "error": message})
        expect = ints[k * len(rows):(k + 1) * len(rows)]
        if stuck or (got := _recover(rows, ints, payloads, k)) == expect:
            continue
        for i, (x, y) in enumerate(zip(got, expect)):
            if x != y:  # name every trial whose packet differs
                x ^= y
                found.extend({"trial": first + pos, "user": k, "packet": list(_pid(dem, f, i, k)),
                              "error": "byte mismatch"}
                             for pos, dem in enumerate(dems)
                             if pos not in failed and (x >> 8 * size * pos) & mask)
    return found


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
    uniformly sampled demands, deterministic from ``seed``, each drawn in
    trial order) must be given.  The cache size in files, Z*N/F, is
    reported exactly as a fraction; it need not be an integer.  Every packet
    of every user is compared with the library in every trial.

    Trials run in chunks of ``CHUNK_BYTES // (packet_size*(K*rows + S) + 512)``
    trials (at least one), as a trial takes a packet per cell and per slot
    and about 512 bytes of demand.  A run holds one chunk at a time: beyond
    its plans, which grow with the array, about ``CHUNK_BYTES`` whatever the
    array, trial and file counts.  Failures come in trial, user, row order.
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
    mix, _senders, fault = _slot_plan(p, cells, caches)
    plans = [_user_plan(p, cells, k, lambda i, j, star_rows=star_rows: i % f in star_rows,
                        range(p.s)) for k, star_rows in enumerate(caches.users)]
    if demand is not None:
        try:
            _check_demand(demand, k_users, n, l, p.lp)
        except ValueError as exc:
            fault = (str(exc), None)
    width = max(1, CHUNK_BYTES // (packet_size * (p.k * p.rows + p.s) + 512))
    bounds = [(n, n.bit_length())] * k_users + [(starts, starts.bit_length())] * k_users
    memo: dict[int, int] = {}
    failures: list[dict] = []
    for start in range(0, count, width):
        dems = [demand] if demand is not None else [_draw_demand(rng.getrandbits, bounds, k_users)
                                                    for _ in range(min(width, count - start))]
        if fault is not None:
            failures.extend({"trial": run, "demand": [list(dem.d), list(dem.b)],
                             "error": _say(fault, dem, f)} for run, dem in enumerate(dems, start))
            continue
        found = _run_chunk(start, dems, plans, mix, f, packet_size,
                           _packets(lib, p.lp, f, dems, memo))
        found.sort(key=lambda rec: rec["trial"])  # stable: users, then rows, stay in order
        failures += found
    packets_sent = 0 if fault is not None else p.s
    return SimReport(
        success=not failures,
        packets_sent=packets_sent,
        rate=Fraction(packets_sent, p.lp * p.f),
        trials=count,
        failures=tuple(failures),
        memory_files=Fraction(p.z * n, p.f),
    )


def __getattr__(name: str):
    if name in ("Signal", "SimulationError", "user_cache_bytes", "deliver", "decode"):
        from . import steps

        return getattr(steps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_demand(literal: str) -> Demand:
    try:
        d_part, b_part = literal.split(";")
        d = tuple(int(x) for x in d_part.split(","))
        b = tuple(int(x) for x in b_part.split(","))
    except ValueError as exc:
        raise ValueError(f"demand literal must be 'd0,d1,...;b0,b1,...': {exc}") from exc
    return Demand(d=d, b=b)


def _cmd_simulate(args: SimpleNamespace) -> int:
    from .cli import _emit, _load

    if (args.demand is None) == (args.trials is None):
        raise ValueError("provide exactly one of --demand or --trials")
    p = _load(args.path)
    demand = None if args.demand is None else _parse_demand(args.demand)
    if demand is not None:
        _check_demand(demand, p.k, args.files, args.blocks, p.lp)
    report = simulate(p, args.files, args.blocks, args.packet_size,
                      demand=demand, trials=args.trials, seed=args.seed)
    if args.json:
        from .jsonout import dumps

        _emit(dumps(report.to_json()), None)
    else:
        j = report.to_json()
        _emit("".join(f"{key}: {j[key]}\n" for key in j), None)
    return 0 if report.success else 1
