"""Data model and wire formats for D2D placement delivery arrays (DPDAs).

A DPDA is an (L'*F) x K array over star entries and coded entries ``s^k``:
a star marks a packet index cached by the column's user, while a coded entry
names a broadcast slot ``s`` together with the user ``k`` that transmits the
slot's XOR signal.  One array simultaneously encodes the cache placement and
the broadcast schedule of a device-to-device coded caching scheme.

Stars are represented as :data:`STAR` (``None``); coded entries as
:class:`Coded`.  Every value here is immutable, so instances may be freely
shared between threads.  The package's records, here and in the other
modules, share one private frozen base, ``_Record``: it derives each class's
construction, equality, hash and repr from its field annotations without
generating code or importing more of the standard library.

Canonical text format (byte-stable)::

    DPDA K=4 L'=1 F=4 Z=2 S=4
    2^2 * * 1^1
    * 2^2 * 0^0
    3^3 * 1^1 *
    * 3^3 0^0 *

A JSON mirror with keys ``k, lp, f, z, s, grid`` (the grid holding the same
tokens) is provided for machine consumers.

This module checks structural well-formedness only (dimensions, entry
ranges, one sender per slot).  The semantic conditions C0-C4 live in
:mod:`dpda.validation`.
"""

from __future__ import annotations

import re
from itertools import filterfalse
from typing import Mapping, Sequence

__all__ = [
    "STAR",
    "Coded",
    "Entry",
    "Dpda",
    "FormatError",
    "parse_dpda",
    "serialize_dpda",
    "dpda_to_json",
    "dpda_from_json",
    "slot_cells",
    "permute_band_rows",
    "permute_columns",
    "relabel_slots",
]


class FormatError(ValueError):
    """Malformed DPDA text or JSON; messages carry row/column coordinates."""


_set = object.__setattr__


class _Record:
    """Base of the package's immutable value records.

    A subclass declares its fields as class annotations, in constructor
    order; a class attribute of the same name is that field's default.  The
    base gives it construction by position or keyword, ``==`` and ``hash``
    over the field values (assign ``object.__eq__`` and ``object.__hash__``
    for identity instead), a ``Name(field=value, ...)`` repr that leaves out
    fields named with a leading underscore, and ``AttributeError`` on any
    assignment or deletion.  A subclass built in a hot loop defines its own
    ``__init__`` that sets each field with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        slots = cls.__dict__.get("__slots__", ())  # their member descriptors are no defaults
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__ and name not in slots}
        cls.__match_args__ = cls._fields

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__qualname__}() takes ({', '.join(fields)}), got "
                            f"{len(args)} positional and {sorted(kwargs)} by keyword")
        for field in fields:
            _set(self, field, values[field])

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{field}={getattr(self, field)!r}"
                          for field in self._fields if not field.startswith("_"))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Coded(_Record):
    """Coded entry: a broadcast slot id and the user index that sends it."""

    __slots__ = ("slot", "sender")
    slot: int
    sender: int

    def __init__(self, slot: int, sender: int) -> None:
        _set(self, "slot", slot)
        _set(self, "sender", sender)


Entry = Coded | None
STAR: Entry = None  # star entries are represented as None

_DIGITS = re.compile(r"[0-9]+")
_CODED_TOKEN = re.compile(r"([0-9]+)\^([0-9]+)")


class Dpda(_Record):
    """A (K, L', F, Z, S) placement delivery array.

    ``grid`` is a row-major (lp*f) x k matrix of entries.  Construction
    enforces the structural invariants: exact dimensions, slot ids in
    ``[0, s)``, sender indices in ``[0, k)``, and a single sender per slot.
    """

    __slots__ = ("k", "lp", "f", "z", "s", "grid")
    k: int
    lp: int
    f: int
    z: int
    s: int
    grid: tuple[tuple[Entry, ...], ...]

    def __init__(self, k: int, lp: int, f: int, z: int, s: int,
                 grid: Sequence[Sequence[Entry]]) -> None:
        if k < 1 or lp < 1 or f < 1:
            raise FormatError("K, L' and F must all be >= 1")
        if z < 0 or s < 0:
            raise FormatError("Z and S must be nonnegative")
        grid = tuple(tuple(row) for row in grid)
        if len(grid) != lp * f:
            raise FormatError(f"expected {_count(lp * f)} rows (L'*F), got {len(grid)}")
        senders: dict[int, tuple[int, int, int]] = {}
        for r, row in enumerate(grid):
            if len(row) != k:
                raise FormatError(f"row {r}: expected {_count(k)} columns, got {len(row)}")
            for c, e in enumerate(row):
                if e is None:
                    continue
                if not isinstance(e, Coded):
                    raise FormatError(f"row {r}, column {c}: not a star or coded entry")
                if not 0 <= e.slot < s:
                    raise FormatError(f"row {r}, column {c}: slot {e.slot} out of range [0,{s})")
                if not 0 <= e.sender < k:
                    raise FormatError(
                        f"row {r}, column {c}: sender {e.sender} out of range [0,{k})"
                    )
                seen = senders.get(e.slot)
                if seen is None:
                    senders[e.slot] = (e.sender, r, c)
                elif seen[0] != e.sender:
                    raise FormatError(
                        f"row {r}, column {c}: slot {e.slot} has sender {e.sender}, "
                        f"but row {seen[1]}, column {seen[2]} assigned sender {seen[0]}"
                    )
        for field, value in zip(self._fields, (k, lp, f, z, s, grid)):
            _set(self, field, value)

    @property
    def rows(self) -> int:
        return self.lp * self.f


def _entry_token(e: Entry) -> str:
    return "*" if e is None else f"{e.slot}^{e.sender}"


def _count(n: int) -> str:
    """``n`` in decimal, or a power-of-two floor past str()'s digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def _parse_int(digits: str, where: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"{where}: {len(digits)}-digit integer is too long") from exc


def _parse_token(tok: str, r: int, c: int) -> Coded:
    m = _CODED_TOKEN.fullmatch(tok)
    if m is None:
        raise FormatError(f"row {r}, column {c}: bad token {tok!r}")
    try:
        return Coded(int(m[1]), int(m[2]))
    except ValueError:  # more digits than int() converts: parse again to name the field
        where = f"row {r}, column {c}"
        return Coded(_parse_int(m[1], where), _parse_int(m[2], where))


def _parse_row(toks: Sequence[str], r: int, memo: dict[str, Entry]) -> tuple[Entry, ...]:
    """Row ``r``'s entries; ``memo`` maps each token seen so far to its one entry,
    and gains the row's new tokens, parsed in column order."""
    for tok in filterfalse(memo.__contains__, toks):
        memo[tok] = _parse_token(tok, r, toks.index(tok))
    return tuple(map(memo.__getitem__, toks))


def parse_dpda(text: str | bytes) -> Dpda:
    """Parse the DPDA text format into a structurally well-formed array.

    Semantic conditions (C0-C4) are *not* checked here.  Raises
    :class:`FormatError` with row/column coordinates on malformed input.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from exc
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty input")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "DPDA":
        raise FormatError(f"malformed header: {lines[0]!r}")
    fields = {}
    for part, key in zip(header[1:], ("K", "L'", "F", "Z", "S")):
        prefix = key + "="
        if not part.startswith(prefix) or not _DIGITS.fullmatch(part, len(prefix)):
            raise FormatError(f"malformed header field {part!r} (expected {prefix}<int>)")
        fields[key] = _parse_int(part[len(prefix):], f"header field {key}")
    k, lp, f, z, s = fields["K"], fields["L'"], fields["F"], fields["Z"], fields["S"]
    body = lines[1:]
    if lp < 1 or f < 1:
        raise FormatError("header requires L' >= 1 and F >= 1")
    if len(body) != lp * f:
        raise FormatError(f"expected {_count(lp * f)} body rows (L'*F), got {len(body)}")
    memo: dict[str, Entry] = {"*": STAR}
    grid = []
    for r, line in enumerate(body):
        toks = line.split()
        if len(toks) != k:
            raise FormatError(f"row {r}: expected {k} tokens, got {len(toks)}")
        grid.append(_parse_row(toks, r, memo))
    return Dpda(k=k, lp=lp, f=f, z=z, s=s, grid=tuple(grid))


def serialize_dpda(p: Dpda) -> str:
    """Render ``p`` in the canonical text format (byte-stable, round-trips)."""
    out = [f"DPDA K={p.k} L'={p.lp} F={p.f} Z={p.z} S={p.s}"]
    out.extend(" ".join(_entry_token(e) for e in row) for row in p.grid)
    return "\n".join(out) + "\n"


def dpda_to_json(p: Dpda) -> dict:
    """JSON mirror of the text format (stable key order)."""
    return {
        "k": p.k,
        "lp": p.lp,
        "f": p.f,
        "z": p.z,
        "s": p.s,
        "grid": [[_entry_token(e) for e in row] for row in p.grid],
    }


def dpda_from_json(obj: str | Mapping) -> Dpda:
    """Parse the JSON mirror produced by :func:`dpda_to_json`.

    ``k, lp, f, z, s`` must be JSON integers and ``grid`` a list of lists of
    tokens; malformed input raises :class:`FormatError`.
    """
    if isinstance(obj, (str, bytes)):
        try:
            import json  # only the JSON mirror needs it

            obj = json.loads(obj)
        except (ValueError, RecursionError) as exc:  # malformed, too long or too deep
            raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, Mapping):
        raise FormatError("JSON mirror must be an object")
    try:
        values = [obj[key] for key in ("k", "lp", "f", "z", "s")]
        rows = obj["grid"]
    except KeyError as exc:
        raise FormatError(f"JSON mirror missing field: {exc}") from exc
    if any(type(v) is not int for v in values):
        raise FormatError(f"JSON mirror k, lp, f, z, s must be integers, got {values!r}")
    k, lp, f, z, s = values
    if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows):
        raise FormatError("JSON mirror grid must be a list of rows")
    memo: dict[str, Entry] = {"*": STAR}
    try:
        grid = tuple(_parse_row([*map(str, row)], r, memo) for r, row in enumerate(rows))
    except RecursionError as exc:  # str() of a token nested too deep
        raise FormatError(f"JSON mirror grid token nests too deep: {exc}") from exc
    return Dpda(k=k, lp=lp, f=f, z=z, s=s, grid=grid)


def slot_cells(p: Dpda) -> dict[int, list[tuple[int, int]]]:
    """Map each slot id to its (row, column) occurrences in row-major order."""
    cells: dict[int, list[tuple[int, int]]] = {}
    for r, row in enumerate(p.grid):
        for c, e in enumerate(row):
            if e is not None:
                cells.setdefault(e.slot, []).append((r, c))
    return cells


def permute_band_rows(p: Dpda, order: Sequence[int]) -> Dpda:
    """Apply one permutation of the F rows identically to every band.

    ``order[h]`` names the old in-band row placed at in-band position ``h``.
    """
    if sorted(order) != list(range(p.f)):
        raise ValueError("order must be a permutation of range(F)")
    grid = tuple(
        p.grid[band * p.f + order[h]] for band in range(p.lp) for h in range(p.f)
    )
    return Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=p.s, grid=grid)


def permute_columns(p: Dpda, order: Sequence[int]) -> Dpda:
    """Reorder columns and relabel senders accordingly.

    ``order[c]`` names the old column placed at position ``c``; a coded
    entry's sender ``k`` becomes ``k``'s new position.
    """
    if sorted(order) != list(range(p.k)):
        raise ValueError("order must be a permutation of range(K)")
    return Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=p.s, grid=_permuted_grid(p.grid, order))


def _permuted_grid(grid: Sequence[Sequence[Entry]], order: Sequence[int]
                   ) -> tuple[tuple[Entry, ...], ...]:
    """``grid`` with column ``order[c]`` placed at ``c`` and senders relabeled along."""
    inv = [0] * len(order)
    for new, old in enumerate(order):
        inv[old] = new
    return tuple(
        tuple(
            e if e is None else Coded(e.slot, inv[e.sender])
            for e in (row[old] for old in order)
        )
        for row in grid
    )


def relabel_slots(p: Dpda, mapping: Sequence[int] | Mapping[int, int]) -> Dpda:
    """Apply a bijective slot-id relabeling (senders are unchanged)."""
    table = dict(enumerate(mapping)) if not isinstance(mapping, Mapping) else dict(mapping)
    used = {e.slot for row in p.grid for e in row if e is not None}
    if not used <= table.keys():
        raise ValueError(f"mapping does not cover used slots {sorted(used - table.keys())}")
    image = {table[s] for s in used}
    if len(image) != len(used) or any(not 0 <= v < p.s for v in image):
        raise ValueError("mapping must be injective into [0,S) on the used slots")
    grid = tuple(
        tuple(e if e is None else Coded(table[e.slot], e.sender) for e in row)
        for row in p.grid
    )
    return Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=p.s, grid=grid)
