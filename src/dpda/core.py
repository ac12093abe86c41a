"""Data model, reader and writers for D2D placement delivery arrays (DPDAs).

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
generating code or importing more of the standard library, and
``_as_json`` derives the JSON document of every report record from the
same fields.

Canonical text format (byte-stable)::

    DPDA K=4 L'=1 F=4 Z=2 S=4
    2^2 * * 1^1
    * 2^2 * 0^0
    3^3 * 1^1 *
    * 3^3 0^0 *

A JSON mirror with keys ``k, lp, f, z, s, grid`` (the grid holding the same
tokens) is written for machine consumers; nothing reads it back.

``parse_dpda`` is the reader's public entry; its code lives in the private
module :mod:`dpda._read`, which it imports on its first call, so only runs
that read an array compile it (``construct``, ``search`` and ``bounds
--case`` never do).  The reader converts each distinct token once per call
and hands the header values and rows to :class:`Dpda`, whose check is the
one statement of the structure (dimensions, entry ranges, one sender per
slot) and builds each array's one slot index; both raise
:class:`FormatError` with row and column coordinates.  The semantic
conditions C0-C4 live in :mod:`dpda.validation`.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence

__all__ = [
    "STAR",
    "Coded",
    "Entry",
    "Dpda",
    "FormatError",
    "parse_dpda",
    "serialize_dpda",
    "dpda_to_json",
]


class FormatError(ValueError):
    """Malformed DPDA text or grid; messages carry row/column coordinates."""


_set = object.__setattr__


class _Record:
    """Base of the package's immutable value records.

    A subclass declares its fields as class annotations, in constructor
    order; a class attribute of the same name is that field's default.  The
    base gives it construction by position or keyword, ``==`` and ``hash``
    over the field values, a ``Name(field=value, ...)`` repr that leaves out
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

class Dpda(_Record):
    """A (K, L', F, Z, S) placement delivery array.

    ``grid`` is a row-major (lp*f) x k matrix of entries.  Construction
    enforces the structural invariants: exact dimensions, no more slots
    than cells, slot ids in ``[0, s)``, sender indices in ``[0, k)``, and a
    single sender per slot.

    The same walk builds the array's slot index, ``_cells``: entry ``s``
    lists slot ``s``'s (row, column) cells in row-major order (empty for an
    id that never occurs), and its first cell names the slot's sender.
    :mod:`dpda.validation` and :mod:`dpda.sim` read it.  It is a slot, not a
    field, so equality, hash, repr and pickling see the six fields alone,
    and an unpickled or copied array rebuilds it in ``__init__``.
    """

    __slots__ = ("k", "lp", "f", "z", "s", "grid", "_cells")
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
        if s > lp * f * k:
            raise FormatError(f"S={_count(s)} exceeds the {_count(lp * f * k)} cells (L'*F*K)")
        grid = tuple(tuple(row) for row in grid)
        if len(grid) != lp * f:
            raise FormatError(f"expected {_count(lp * f)} rows (L'*F), got {len(grid)}")
        cells: list[list[tuple[int, int]]] = [[] for _ in range(s)]
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
                occ = cells[e.slot]
                if occ:
                    r0, c0 = occ[0]
                    if grid[r0][c0].sender != e.sender:
                        raise FormatError(
                            f"row {r}, column {c}: slot {e.slot} has sender {e.sender}, "
                            f"but row {r0}, column {c0} assigned sender {grid[r0][c0].sender}"
                        )
                occ.append((r, c))
        for field, value in zip(self._fields, (k, lp, f, z, s, grid)):
            _set(self, field, value)
        _set(self, "_cells", cells)

    @property
    def rows(self) -> int:
        return self.lp * self.f


def _row_tokens(row: Sequence[Entry]) -> list[str]:
    return ["*" if e is None else f"{e.slot}^{e.sender}" for e in row]


def _count(n: int) -> str:
    """``n`` in decimal, or a power-of-two floor past str()'s digit limit."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def serialize_dpda(p: Dpda) -> str:
    """Render ``p`` in the canonical text format (byte-stable, round-trips)."""
    header = f"DPDA K={p.k} L'={p.lp} F={p.f} Z={p.z} S={p.s}"
    return "\n".join([header, *map(" ".join, map(_row_tokens, p.grid)), ""])


def _as_json(value: object) -> object:
    """``value`` as a JSON document: a str, int, bool, None or dict as it is,
    a tuple or list as the list of its converted items, a :class:`Dpda` as
    its canonical text, any other record as the dict of the fields its repr
    shows, in field order, and anything else (a ``Fraction``) as its str.
    A report record's ``to_json`` is this rule."""
    if value is None or isinstance(value, (str, int, dict)):
        return value
    if isinstance(value, (tuple, list)):
        return [*map(_as_json, value)]
    if isinstance(value, Dpda):
        return serialize_dpda(value)
    if isinstance(value, _Record):
        return {field: _as_json(getattr(value, field))
                for field in value._fields if not field.startswith("_")}
    return str(value)


def parse_dpda(text: str | bytes) -> Dpda:
    """Parse the DPDA text format into a structurally well-formed array.

    Semantic conditions (C0-C4) are *not* checked here.  Raises
    :class:`FormatError` with row/column coordinates on malformed input.
    """
    from ._read import parse  # only runs that read an array compile the reader

    return parse(text)


def _load(path: str) -> Dpda:
    """:func:`parse_dpda` of the array file at ``path``, or of stdin for ``-``."""
    if path == "-":
        return parse_dpda(sys.stdin.buffer.read())
    with open(path, "rb") as fh:
        return parse_dpda(fh.read())


def dpda_to_json(p: Dpda) -> dict:
    """JSON mirror of the text format (stable key order)."""
    return {
        "k": p.k,
        "lp": p.lp,
        "f": p.f,
        "z": p.z,
        "s": p.s,
        "grid": [_row_tokens(row) for row in p.grid],
    }
