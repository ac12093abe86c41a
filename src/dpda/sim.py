"""Packet-level execution of the caching protocol encoded by a DPDA.

Placement is the array's star pattern: user j caches packet h of every file
and block when row h of column j is a star, so band 0 of the grid (its
first F rows) is the placement and no cache is built from it.  Delivery
sends one XOR signal per slot (slot s groups the entries ``s^k``, broadcast
by user k); decoding lets every user recover its requested blocks from the
signals and its cache.

File content is synthetic but deterministic: byte ``o`` of packet
``(file i, block l, packet h)`` is ``(i*31 + l*17 + h*7 + o) mod 256``,
so independent runs (and independent implementations of this rule) agree
byte-for-byte without sharing a random generator.  A packet is fixed by
its first byte, so at most 256 distinct packets exist.

A cache is never stored: it is band 0 of the user's column plus the byte
rule, and packets are slices of one ramp of bytes that :func:`simulate`
builds per run.
Which cells each slot mixes, whether its sender caches them, which side
packets each user strips and whether it caches them depend on the array
alone, so :func:`simulate` plans and checks them from the slot index that
:class:`~dpda.core.Dpda` builds, and a caller's demand, once per run; only
same-row collisions are checked per trial (drawn demands are in range), so
a failure is a plan fault or a demand's refusal.
Trials run in chunks that fit a byte budget, in trial order: a cell's
packets for every trial of a chunk sit side by side in one little-endian
integer, built from the byte rule, so a chunk XORs each slot and strips
each user's side packets once.  That run on real bytes is asserted as an
identity: a payload minus its side cells is the user's own cell.
:func:`simulate` is the protocol's one path; the tests pin its cell
integers to ``Library.packet`` of the materialised library in
``tests/sim_reference.py``, and compare its reports with that per-call
reference, which delivers and decodes one demand at a time.
``_cmd_simulate`` is the ``dpda simulate`` handler of :mod:`dpda.cli`: it
returns the report, as text or as the ``--json`` document, for ``main`` to
write.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import reduce
from operator import xor
from types import SimpleNamespace

from .core import Dpda, _as_json, _load, _Record, _set

__all__ = [
    "PacketId",
    "Demand",
    "SimReport",
    "simulate",
]

PacketId = tuple[int, int, int]  # (file, block, packet)


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
CHUNK_BYTES = 1 << 19  # bytes a chunk's trials may take: B = this // bytes per trial, >= 1


def _pid(dem: Demand, f: int, i: int, j: int) -> PacketId:
    return dem.d[j], dem.b[j] + i // f, i % f


def _say(fault: _Fault, dem: Demand, f: int) -> str:
    text, cell = fault
    return text if cell is None else text.format(_pid(dem, f, *cell))


def _slot_plan(p: Dpda) -> tuple[list[tuple[int, ...]], _Fault | None]:
    """Each slot's cell indices, in slot order, and the fault of the first
    slot that never occurs or whose sender lacks one of its packets (None
    when every slot can be sent), read from the array's slot index.  The
    sender holds cell (i, j)'s packet when row i mod F of its column is a
    star: band 0 is the placement."""
    mix, f, rows, grid = [], p.f, p.rows, p.grid
    for s, occ in enumerate(p._cells):
        if not occ:
            return mix, (f"slot {s} never occurs; cannot schedule its broadcast", None)
        sender = grid[occ[0][0]][occ[0][1]].sender
        for i, j in occ:
            if grid[i % f][sender] is not None:
                return mix, (f"sender {sender} lacks packet {{}} needed for slot {s} "
                             f"(entry at row {i}, column {j})", (i, j))
        mix.append(tuple(j * rows + i for i, j in occ))
    return mix, None


def _user_plan(p: Dpda, k: int,
               ) -> tuple[list[tuple[int, int, int, int]], _Fault | None, list[_Row]]:
    """User k's decoding, checked in row order: (clashes, fault, rows).

    User k holds cell (i, j)'s packet when row i mod F of column k is a
    star (band 0 is the placement), and every slot in [0, S) is sent.
    ``fault`` is that of the first star row user k lacks or side packet it
    cannot strip.
    ``clashes`` lists, up to it, each side cell (i2, j2) in coded row i's
    in-band row as (i, j2, shift, slot): it carries the wanted packet itself
    when b_j2 = b_k + shift.  ``rows[i]`` is row i's (slot, side cells).
    """
    f, nrows, grid, cells = p.f, p.rows, p.grid, p._cells
    clashes, rows = [], []
    for i, row in enumerate(grid):
        e = row[k]
        if e is None:
            if grid[i % f][k] is not None:
                return clashes, (f"user {k} should have cached {{}} but has not", (i, k)), rows
            rows.append((None, ()))
            continue
        sides = [(i2, j2) for i2, j2 in cells[e.slot] if (i2, j2) != (i, k)]
        for i2, j2 in sides:
            if i2 % f == i % f:
                clashes.append((i, j2, i // f - i2 // f, e.slot))
            if grid[i2 % f][k] is not None:
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


def _packets(ramp: bytes, size: int, lp: int, f: int, dems: list[Demand],
             memo: dict[int, int]) -> list[int]:
    """The flat cell integers of a chunk: cell (i, j)'s holds its packet for
    every trial, trial t at bytes [t*size, (t+1)*size).  A packet with first
    byte y is ``ramp[y:y + size]`` of the ramp 0, 1, ..., 255, 0, 1, ...
    Row i = band*F + h is the column's joined first packets plus
    band*17 + h*7 on every byte (mod 256).  A one-trial chunk reads each
    packet from ``memo``, the run's packet integers by first byte, filled on
    first use (at most 256)."""
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


def _recover(rows: list[_Row], ints: Sequence[int], payloads: list[int],
             k: int) -> list[int]:
    """User ``k``'s recovered integers by row: its own, or a slot's minus side cells."""
    own, got = k * len(rows), []
    for i, (slot, sides) in enumerate(rows):
        x = ints[own + i] if slot is None else payloads[slot]
        for c in sides:  # a star row has none
            x ^= ints[c]
        got.append(x)
    return got


def _assert_recovery(first: int, width: int, plans: list, mix: list[tuple[int, ...]],
                     ints: list[int]) -> None:
    """Assert that each user that decodes recovers its own cells from the
    cell integers ``ints`` of trials ``first`` .. ``first + width - 1``: a
    slot's payload minus its side cells is that cell, whatever the bytes."""
    payloads = _payloads(mix, ints)
    for k, (_clashes, stuck, rows) in enumerate(plans):
        own = k * len(rows)
        if not stuck and _recover(rows, ints, payloads, k) != ints[own:own + len(rows)]:
            raise AssertionError(f"user {k} recovered other bytes than it requested "
                                 f"in trials {first}..{first + width - 1}")


class SimReport(_Record):
    """Outcome of one or many protocol runs on a fixed array and library.

    A failure is a plan fault (``trial``, ``demand``, ``error``) or a
    demand's refusal (``trial``, ``user``, ``error``); recovery is asserted.
    """

    success: bool
    packets_sent: int
    rate: Fraction
    trials: int
    failures: tuple[dict, ...]
    memory_files: Fraction

    to_json = _as_json

    def __hash__(self) -> int:  # a failure is a dict, so only their number is hashed
        return hash((self.success, self.packets_sent, self.rate, self.trials,
                     len(self.failures), self.memory_files))


def simulate(p: Dpda, n: int, l: int, packet_size: int = 64, *,
             demand: Demand | None = None, trials: int | None = None,
             seed: int = 0) -> SimReport:
    """Run placement, XOR delivery and decoding on real bytes, and report
    whether every user decodes.

    Exactly one of ``demand`` (a single run: a one-trial chunk of the same
    core) or ``trials`` (that many uniformly sampled demands, deterministic
    from ``seed``, each drawn in trial order) must be given.  The cache
    size in files, Z*N/F, is reported exactly as a fraction; it need not be
    an integer.  A failure is a plan fault, which the array decides, or a
    demand's refusal (a packet a slot mixes twice).  Each user's recovery
    of its own cells is asserted on every chunk, so a bug raises
    ``AssertionError``.

    Trials run in chunks of ``CHUNK_BYTES // (packet_size*(K*rows + S) + 512)``
    trials (at least one), as a trial takes a packet per cell and per slot
    and about 512 bytes of demand.  A run holds one chunk at a time: beyond
    its plans, which grow with the array, about max(``CHUNK_BYTES``, one
    trial) whatever the trial and file counts.  So a trial above the budget,
    as long packets on a large array make, runs alone, and the run's memory
    then grows with ``packet_size`` and the array.  Failures come in trial,
    then user order.
    """
    if l < p.lp:
        raise ValueError(f"need L >= L', got L={l}, L'={p.lp}")
    if (demand is None) == (trials is None):
        raise ValueError("provide exactly one of demand= or trials=")
    if min(n, l, packet_size) < 1:  # F >= 1 holds for every Dpda
        raise ValueError("N, L, F and packet_size must all be >= 1")
    count = 1 if trials is None else trials
    if count < 1:
        raise ValueError("trials must be >= 1")
    ramp = bytes(range(256)) * (packet_size // 256 + 2)
    rng = random.Random(seed)
    k_users, f, starts = p.k, p.f, l - p.lp + 1
    mix, fault = _slot_plan(p)
    plans = [_user_plan(p, k) for k in range(k_users)]
    if demand is not None:
        try:
            _check_demand(demand, k_users, n, l, p.lp)
        except ValueError as exc:
            fault = (str(exc), None)
    width = max(1, CHUNK_BYTES // (packet_size * (p.k * p.rows + p.s) + 512))
    bounds = [(n, n.bit_length())] * k_users + [(starts, starts.bit_length())] * k_users
    refusing = [k for k, (clashes, stuck, _rows) in enumerate(plans) if clashes or stuck]
    memo: dict[int, int] = {}
    failures: list[dict] = []
    for start in range(0, count, width):
        dems = [demand] if demand is not None else [_draw_demand(rng.getrandbits, bounds, k_users)
                                                    for _ in range(min(width, count - start))]
        if fault is not None:
            failures.extend({"trial": run, "demand": [list(dem.d), list(dem.b)],
                             "error": _say(fault, dem, f)} for run, dem in enumerate(dems, start))
            continue
        # unnamed, so a chunk's integers are freed before the next chunk builds its own
        _assert_recovery(start, len(dems), plans, mix,
                         _packets(ramp, packet_size, p.lp, f, dems, memo))
        failures += [{"trial": run, "user": k, "error": message}
                     for run, dem in enumerate(dems, start) for k in refusing
                     if (message := _refusal(plans[k], dem, k, f))]
    packets_sent = 0 if fault is not None else p.s
    return SimReport(
        success=not failures,
        packets_sent=packets_sent,
        rate=Fraction(packets_sent, p.lp * p.f),
        trials=count,
        failures=tuple(failures),
        memory_files=Fraction(p.z * n, p.f),
    )


def _parse_demand(literal: str) -> Demand:
    try:
        d_part, b_part = literal.split(";")
        d = tuple(int(x) for x in d_part.split(","))
        b = tuple(int(x) for x in b_part.split(","))
    except ValueError as exc:
        raise ValueError(f"demand literal must be 'd0,d1,...;b0,b1,...': {exc}") from exc
    return Demand(d=d, b=b)


def _cmd_simulate(args: SimpleNamespace) -> tuple[str | dict, int]:
    if (args.demand is None) == (args.trials is None):
        raise ValueError("provide exactly one of --demand or --trials")
    p = _load(args.path)
    demand = None if args.demand is None else _parse_demand(args.demand)
    if demand is not None:
        _check_demand(demand, p.k, args.files, args.blocks, p.lp)
    report = simulate(p, args.files, args.blocks, args.packet_size,
                      demand=demand, trials=args.trials, seed=args.seed)
    j = report.to_json()
    doc = j if args.json else "".join(f"{key}: {j[key]}\n" for key in j)
    return doc, 0 if report.success else 1
