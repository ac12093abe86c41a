"""The ``--json`` output of the CLI, written without loading ``json``.

:func:`dumps` returns what ``json.dumps(obj, indent=2) + "\\n"`` returns
for the documents the package's ``to_json`` methods and ``dpda_to_json``
build.  Each verb's handler imports this module only under ``--json``, so
text runs, help and usage errors never compile it.
"""

from __future__ import annotations


class _Escapes(dict):
    """``str.translate`` table from each code point to its form in
    ``json.dumps`` (``ensure_ascii``): printable ASCII stays as it is, and
    every other code point not given a short escape is written ``\\uXXXX``,
    as a surrogate pair past the BMP."""

    def __missing__(self, o: int) -> str:
        if o < 0x10000:
            return f"\\u{o:04x}"
        o -= 0x10000
        return f"\\u{0xd800 | o >> 10:04x}\\u{0xdc00 | o & 0x3ff:04x}"


_ESCAPES = _Escapes({o: chr(o) for o in range(0x20, 0x7f)} | str.maketrans(
    {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\t": "\\t", "\n": "\\n", "\f": "\\f", "\r": "\\r"}))


def dumps(obj: object) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` for what the package's
    ``to_json`` methods and ``dpda_to_json`` return: dicts with str keys,
    lists, tuples, str, int, bool and None.  Anything else, a float or a
    non-str key included, raises ``TypeError``.  ``json`` stays unloaded."""
    return _dump(obj, "\n") + "\n"


def _dump(obj: object, newline: str) -> str:
    """``obj`` as ``json.dumps(..., indent=2)`` writes it at the depth whose
    line breaks are ``newline``."""
    if isinstance(obj, str):
        return '"' + obj.translate(_ESCAPES) + '"'
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        "".join(obj)  # raises TypeError unless every key is a str
        items = [f"{_dump(key, inner)}: {_dump(value, inner)}" for key, value in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        try:
            flat = "".join(obj)
        except TypeError:  # not only strings
            flat = ""
        if flat and flat.translate(_ESCAPES) == flat:  # strings that need no escapes
            items = ['"' + ('",' + inner + '"').join(obj) + '"']
        else:
            items = [_dump(item, inner) for item in obj]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]
