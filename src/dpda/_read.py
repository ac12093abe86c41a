"""The DPDA text reader behind :func:`dpda.core.parse_dpda`.

Only runs that read an array execute this module: ``parse_dpda`` imports
it on its first call, so ``construct``, ``search`` and ``bounds --case``
never compile it.  :func:`parse` reads the header, and :func:`_grid` walks
the rows in order and converts each distinct token at its first cell
through :func:`_parse_token`, the one statement of the token grammar, so
all the cells holding a token share one :class:`~dpda.core.Coded`, and the
first bad token raises.  :func:`parse` hands the header values and rows to
:class:`~dpda.core.Dpda`, whose check is the one statement of the
structure; both raise :class:`~dpda.core.FormatError` with row and column
coordinates.
"""

from __future__ import annotations

from .core import STAR, Coded, Dpda, Entry, FormatError


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
    except ValueError:  # more digits than int() converts: parse again to name the run
        where = f"row {r}, column {c}"
        return Coded(_parse_int(slot, where), _parse_int(sender, where))


def _grid(rows: list[list[str]]) -> list[tuple[Entry, ...]]:
    """The entries of ``rows``' tokens, walked in row order.  Each distinct
    token is converted at its first cell, so the first bad token raises and
    all the cells holding a token share its one entry."""
    memo: dict[str, Entry] = {"*": STAR}
    grid = []
    for r, toks in enumerate(rows):
        for c, tok in enumerate(toks):
            if tok not in memo:
                memo[tok] = _parse_token(tok, r, c)
        grid.append(tuple(map(memo.__getitem__, toks)))
    return grid


def parse(text: str | bytes) -> Dpda:
    """:func:`dpda.core.parse_dpda` of ``text``."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from exc
    lines = [*filter(None, map(str.strip, text.splitlines()))]
    if not lines:
        raise FormatError("empty input")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "DPDA":
        raise FormatError(f"malformed header: {lines[0]!r}")
    values = []
    for part, key in zip(header[1:], ("K", "L'", "F", "Z", "S")):
        prefix = key + "="
        value = part[len(prefix):]
        if not (part.startswith(prefix) and value.isascii() and value.isdigit()):
            raise FormatError(f"malformed header field {part!r} (expected {prefix}<int>)")
        values.append(_parse_int(value, f"header field {key}"))
    return Dpda(*values, _grid([line.split() for line in lines[1:]]))
