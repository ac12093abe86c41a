"""Regenerate ``search_minima.json``: exhaustive minima for K*F <= 16.

Run from the repository root: ``PYTHONPATH=src python3 bench/make_minima.py``.
The table is a recorded answer key; regenerate it only when the search
oracle's answers are meant to change.
"""

import json
from pathlib import Path

from dpda.search import search_min_s


def main() -> None:
    rows = []
    for k in range(2, 9):
        for f in range(2, 16 // k + 1):
            for z in range(1, f + 1):
                res = search_min_s(k, f, z, (f - z) * k)
                rows.append({"k": k, "f": f, "z": z, "minimal_s": res.minimal_s})
    out = Path(__file__).with_name("search_minima.json")
    body = ",\n".join("  " + json.dumps(row) for row in rows)
    out.write_text('{"instances": [\n' + body + "\n]}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
