"""Reader of the DPDA text format (see :mod:`dpda.core`).

``parse_dpda`` parses each distinct token once per call: ``_grid``
collects the distinct tokens of the whole body and converts them in one
bulk pass into a dict from token to entry, so all the cells holding a token
share one :class:`~dpda.core.Coded`, and each row is looked up whole.  Only
when a row length or a token is wrong does it walk the rows in order to
name the first fault.  The JSON mirror's reader in :mod:`dpda.mirror` reads
its tokens through ``_grid`` too.  Malformed input raises
:class:`~dpda.core.FormatError` with row and column coordinates; semantic
conditions (C0-C4) are not checked here.

This module loads on the first call of a reader, so runs that only build,
bound or search arrays never compile it.  ``dpda.parse_dpda`` and
``dpda.core.parse_dpda`` name the same function; this module still answers
for ``dpda_from_json``, which loads from :mod:`dpda.mirror` on first use.
"""

from __future__ import annotations

from itertools import chain, repeat

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
    where = f"row {r}, column {c}"
    return Coded(_parse_int(slot, where), _parse_int(sender, where))


def _grid(rows: list[list[str]], k: int | None = None) -> tuple[tuple[Entry, ...], ...]:
    """The entries of ``rows``' tokens.  The distinct tokens are converted in
    one bulk pass, and all the cells holding a token share its one entry.
    Only if that pass fails, or a row does not hold ``k`` tokens (when ``k``
    is given), are the rows walked in order to raise at the first fault."""
    memo: dict[str, Entry] = {"*": STAR}
    tokens = dict.fromkeys(chain.from_iterable(rows))
    tokens.pop("*", None)
    # every token one caret (at least one each, 2n fields in all) between runs
    # of ASCII digits: what [0-9]+^[0-9]+ matches, as int() refuses an empty run
    fields = "^".join(tokens).split("^")
    digits = "".join(fields)
    sound = ((k is None or not set(map(len, rows)) - {k}) and len(fields) == 2 * len(tokens)
             and digits.isascii() and digits.isdigit()
             and all(map(str.__contains__, tokens, repeat("^"))))
    if sound:
        try:
            values = [*map(int, fields)]
        except ValueError:  # an empty run, or more digits than int() converts
            sound = False
        else:
            memo.update(zip(tokens, map(Coded, values[0::2], values[1::2])))
    if not sound:  # walk the rows to raise at the first fault (or no token is coded)
        for r, toks in enumerate(rows):
            if k is not None and len(toks) != k:
                raise FormatError(f"row {r}: expected {k} tokens, got {len(toks)}")
            for c, tok in enumerate(toks):
                if tok not in memo:
                    memo[tok] = _parse_token(tok, r, c)
    return tuple(tuple(map(memo.__getitem__, toks)) for toks in rows)


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
    k, lp, f, z, s = values
    body = lines[1:]
    if lp < 1 or f < 1:
        raise FormatError("header requires L' >= 1 and F >= 1")
    if len(body) != lp * f:
        raise FormatError(f"expected {_count(lp * f)} body rows (L'*F), got {len(body)}")
    return Dpda(k=k, lp=lp, f=f, z=z, s=s, grid=_grid([line.split() for line in body], k))


def __getattr__(name: str):
    if name == "dpda_from_json":
        from . import mirror

        return mirror.dpda_from_json
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
