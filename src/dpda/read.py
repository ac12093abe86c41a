"""Reader of the DPDA text format (see :mod:`dpda.core`).

``parse_dpda`` parses each distinct token once per call: a per-call dict
maps every token seen so far to its one entry, so all the cells holding a
token share one :class:`~dpda.core.Coded`, and a row of known tokens is
looked up whole.  The JSON mirror's reader in :mod:`dpda.mirror` shares
that memo through ``_parse_row``.  Malformed input raises
:class:`~dpda.core.FormatError` with row and column coordinates; semantic
conditions (C0-C4) are not checked here.

This module loads on the first call of a reader, so runs that only build,
bound or search arrays never compile it.  ``dpda.parse_dpda`` and
``dpda.core.parse_dpda`` name the same function; this module still answers
for ``dpda_from_json``, which loads from :mod:`dpda.mirror` on first use.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Sequence

from .core import STAR, Coded, Dpda, Entry, FormatError, _count

__all__ = ["parse_dpda"]


def _parse_int(digits: str, where: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # more digits than int() converts
        raise FormatError(f"{where}: {len(digits)}-digit integer is too long") from exc


def _parse_token(tok: str, r: int, c: int) -> Coded:
    # ASCII digits on both sides of one caret: what [0-9]+^[0-9]+ matches
    slot, caret, sender = tok.partition("^")
    if not (caret and tok.isascii() and slot.isdigit() and sender.isdigit()):
        raise FormatError(f"row {r}, column {c}: bad token {tok!r}")
    try:
        return Coded(int(slot), int(sender))
    except ValueError:  # more digits than int() converts: parse again to name the field
        where = f"row {r}, column {c}"
        return Coded(_parse_int(slot, where), _parse_int(sender, where))


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
        value = part[len(prefix):]
        if not (part.startswith(prefix) and value.isascii() and value.isdigit()):
            raise FormatError(f"malformed header field {part!r} (expected {prefix}<int>)")
        fields[key] = _parse_int(value, f"header field {key}")
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


def __getattr__(name: str):
    if name == "dpda_from_json":
        from . import mirror

        return mirror.dpda_from_json
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
