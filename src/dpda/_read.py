"""The DPDA text reader behind :func:`dpda.core.parse_dpda`.

Only runs that read an array execute this module: ``parse_dpda`` imports
it on its first call, so ``construct``, ``search`` and ``bounds --case``
never compile it.  :func:`parse` parses each distinct token once per call:
:func:`_grid` collects the distinct tokens of the whole body and converts
them in one bulk pass into a dict from token to entry, so all the cells
holding a token share one :class:`~dpda.core.Coded`, and each row is looked
up whole.  Only when a token is wrong does it walk the rows in order to name
the first bad one.  :func:`parse` reads the header and hands the values and
rows to :class:`~dpda.core.Dpda`, whose check is the one statement of the
structure; both raise :class:`~dpda.core.FormatError` with row and column
coordinates.
"""

from __future__ import annotations

from itertools import chain, repeat

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
    where = f"row {r}, column {c}"
    return Coded(_parse_int(slot, where), _parse_int(sender, where))


def _grid(rows: list[list[str]]) -> tuple[tuple[Entry, ...], ...]:
    """The entries of ``rows``' tokens.  The distinct tokens are converted in
    one bulk pass, and all the cells holding a token share its one entry.
    Only if that pass fails are the rows walked in order to raise at the
    first bad token."""
    memo: dict[str, Entry] = {"*": STAR}
    tokens = dict.fromkeys(chain.from_iterable(rows))
    tokens.pop("*", None)
    # every token one caret (at least one each, 2n fields in all) between runs
    # of ASCII digits: what [0-9]+^[0-9]+ matches, as int() refuses an empty run
    fields = "^".join(tokens).split("^")
    digits = "".join(fields)
    sound = (len(fields) == 2 * len(tokens) and digits.isascii() and digits.isdigit()
             and all(map(str.__contains__, tokens, repeat("^"))))
    if sound:
        try:
            values = [*map(int, fields)]
        except ValueError:  # an empty run, or more digits than int() converts
            sound = False
        else:
            memo.update(zip(tokens, map(Coded, values[0::2], values[1::2])))
    if not sound:  # walk the rows to raise at the first bad token (or no token is coded)
        for r, toks in enumerate(rows):
            for c, tok in enumerate(toks):
                if tok not in memo:
                    memo[tok] = _parse_token(tok, r, c)
    return tuple(tuple(map(memo.__getitem__, toks)) for toks in rows)


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
