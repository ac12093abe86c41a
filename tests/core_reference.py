"""Reference reader and structural check for differential tests of
:mod:`dpda.core`.

The reader is the text reader's earlier per-cell path: every cell's token
is matched and converted on its own, so a token held by many cells is
parsed once per cell.  ``dpda.core.parse_dpda``, whose code lives in
``dpda._read``, converts each distinct token once per call; on every input
it must return an equal array or raise the same exception with the same
message.  :func:`check_dpda` is ``Dpda``'s
structural check as a plain per-cell walk, and the one shape check of the
reference reader, which runs it once every token is converted;
``Dpda(...)`` must accept what it accepts and otherwise raise the same
exception with the same message.
"""

from __future__ import annotations

import re

from dpda import STAR, Coded, Dpda, Entry, FormatError

_DIGITS = re.compile(r"[0-9]+")
_CODED_TOKEN = re.compile(r"([0-9]+)\^([0-9]+)")


def _count(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def _parse_int(digits: str, where: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:
        raise FormatError(f"{where}: {len(digits)}-digit integer is too long") from exc


def _parse_token(tok: str, r: int, c: int) -> Entry:
    if tok == "*":
        return STAR
    m = _CODED_TOKEN.fullmatch(tok)
    if m is None:
        raise FormatError(f"row {r}, column {c}: bad token {tok!r}")
    where = f"row {r}, column {c}"
    return Coded(slot=_parse_int(m.group(1), where), sender=_parse_int(m.group(2), where))


def check_dpda(k, lp, f, z, s, grid) -> tuple:
    """``Dpda``'s structural check, cell by cell; returns the grid as tuples."""
    if k < 1 or lp < 1 or f < 1:
        raise FormatError("K, L' and F must all be >= 1")
    if z < 0 or s < 0:
        raise FormatError("Z and S must be nonnegative")
    if s > lp * f * k:
        raise FormatError(f"S={_count(s)} exceeds the {_count(lp * f * k)} cells (L'*F*K)")
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
    return grid


def _dpda(k, lp, f, z, s, grid) -> Dpda:
    return Dpda(k=k, lp=lp, f=f, z=z, s=s, grid=check_dpda(k, lp, f, z, s, grid))


def parse_dpda(text: str | bytes) -> Dpda:
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
    grid = [tuple(_parse_token(t, r, c) for c, t in enumerate(line.split()))
            for r, line in enumerate(lines[1:])]
    return _dpda(k, lp, f, z, s, grid)
