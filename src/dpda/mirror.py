"""The JSON mirror of the DPDA text format (see :mod:`dpda.core`).

The mirror is an object with keys ``k, lp, f, z, s, grid``, the grid
holding the same tokens as the text format, for machine consumers.
:func:`dpda_to_json` writes it and :func:`dpda_from_json` reads it back,
converting its tokens through the text reader's bulk pass (:mod:`dpda.read`).

This module loads on the first call of either function, so only
``construct --json`` and library callers compile it.  ``dpda.core``
answers for both names, and ``dpda.read`` for ``dpda_from_json``.
"""

from __future__ import annotations

from typing import Mapping

from . import read
from .core import Dpda, FormatError, _row_tokens

__all__ = ["dpda_to_json", "dpda_from_json"]


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


def dpda_from_json(obj: str | Mapping) -> Dpda:
    """Parse the JSON mirror produced by :func:`dpda_to_json`.

    ``k, lp, f, z, s`` must be JSON integers and ``grid`` a list of lists of
    tokens; malformed input raises :class:`FormatError`.
    """
    if isinstance(obj, (str, bytes)):
        try:
            import json  # only JSON text needs it

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
    try:
        tokens = [[*map(str, row)] for row in rows]
    except RecursionError as exc:  # str() of a token nested too deep
        raise FormatError(f"JSON mirror grid token nests too deep: {exc}") from exc
    return Dpda(k=k, lp=lp, f=f, z=z, s=s, grid=read._grid(tokens))
