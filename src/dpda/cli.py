"""Command-line front door.

One verb per capability: ``construct``, ``validate``, ``bounds``,
``simulate``, ``search``, ``compare``.  Human-readable text goes to stdout;
``--json`` switches to machine output.  Exit codes: 0 success / verdict
true, 1 verdict false or failed run, 2 usage or input error, 3 internal
error (a failed assertion or any other unexpected exception).  Identical
invocations on identical inputs produce byte-identical output.

No domain logic lives here.  Each verb's handler, ``_cmd_<verb>``, is a
thin adapter that lives beside the code it adapts (``dpda.sim._cmd_simulate``,
as ``tarfile.main`` lives beside ``tarfile``) and takes ``_emit`` and
``_load`` from this module when it runs.  The library modules load on first
use (see :mod:`dpda`), and ``main`` looks a handler up only once the argv is
read, so a run compiles only the modules its verb calls, and help and usage
errors compile none.  Under ``--json`` a handler writes its document with
:func:`dpda.jsonout.dumps`, which only ``--json`` runs compile.

``_VERBS`` is the one grammar of the command line, and names each verb's
handler.  A plain well-formed argv is read straight from it by
``_fast_args``; ``argparse``, built from the same table, loads only for
help, usage errors and the argv forms the fast path leaves to it
(abbreviations, ``--opt=value``, values starting with ``-``).
"""

from __future__ import annotations

import sys
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

from . import read
from .core import Dpda

__all__ = ["main"]

# bounds.MEMORY_CASES, spelled out so that the grammar does not load
# dpda.bounds for every subcommand; a test keeps the two equal.
_MEMORY_CASES = ("1/K", "2/K", "(K-2)/K", "(K-1)/K")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load(path: str) -> Dpda:
    data = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return read.parse_dpda(data)


_JSON = {"action": "store_true"}
_PATH = {"help": "array file ('-' for stdin)"}
_REQUIRED_INT = {"type": int, "required": True}

# The grammar: verb -> (help, "<module>._cmd_<verb>", argument -> add_argument
# keywords), in help order.  ``main`` resolves the handler's name in
# ``dpda.<module>`` when it dispatches, so reading an argv loads no module.
_VERBS = {
    "construct": ("build a family array", "construct._cmd_construct", {
        "--family": {"required": True, "choices": ["jcm", "grid", "even", "odd"]},
        "--q": {"type": int, "help": "size parameter for grid/even/odd"},
        "--k": {"type": int, "help": "user count for jcm"},
        "--t": {"type": int, "help": "memory parameter for jcm (ratio t/K)"},
        "--lift": {"type": int, "help": "stack into an L'-block array"},
        "--out": {"help": "output path (default stdout)"},
        "--json": _JSON,
    }),
    "validate": ("check the DPDA conditions", "validation._cmd_validate", {
        "path": _PATH,
        "--optimal": {"action": "store_true", "help": "also require the minimal-rate conditions"},
        "--json": _JSON,
    }),
    "bounds": ("rate/packet-number lower bounds", "bounds._cmd_bounds", {
        "--k": {"type": int},
        "--case": {"choices": _MEMORY_CASES},
        "--from": {"dest": "from_path", "help": "score an array file instead"},
        "--json": _JSON,
    }),
    "simulate": ("run the protocol on synthetic packets", "sim._cmd_simulate", {
        "path": _PATH,
        "--files": {"type": int, "required": True, "help": "library size N"},
        "--blocks": {"type": int, "required": True, "help": "blocks per file L"},
        "--packet-size": {"type": int, "default": 64},
        "--demand": {"help": "literal 'd0,d1,...;b0,b1,...'"},
        "--trials": {"type": int, "help": "number of random demands"},
        "--seed": {"type": int, "default": 0},
        "--json": _JSON,
    }),
    "search": ("exhaustive minimum-S search", "search._cmd_search", {
        "--k": _REQUIRED_INT,
        "--f": _REQUIRED_INT,
        "--z": _REQUIRED_INT,
        "--max-s": {"type": int, "help": "default (F-Z)*K"},
        "--cells-limit": {"type": int, "help": "override the search guard"},
        "--json": _JSON,
    }),
    "compare": ("packet-number ratio against the baseline", "bounds._cmd_compare",
                {"path": _PATH, "--json": _JSON}),
}


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of a plain well-formed ``argv``, else None.

    Plain: a verb, then its positionals and its options by full name, each
    option at most once and its value the next token, through ``int()`` and
    ``choices`` as argparse applies them.  Any other token starting with
    ``-`` (``-h``, ``--``, ``--opt=value``, an abbreviation, a value such as
    ``-3``) leaves the whole argv to argparse.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    _help, handler, grammar = _VERBS[argv[0]]
    values = {"command": argv[0], "func": handler}
    dests, positionals, given = {}, [], []
    for name, kw in grammar.items():
        if name[0] == "-":
            dests[name] = kw.get("dest", name[2:].replace("-", "_"))
            values[dests[name]] = kw.get("default", False if "action" in kw else None)
        else:
            positionals.append(name)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        dest = dests.pop(token, None)  # None: unknown, or given before
        if dest is None:
            return None
        kw = grammar[token]
        if "action" in kw:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as one starting with '-'
        if value[:1] == "-":
            return None
        try:
            values[dest] = value = kw.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
    if len(given) != len(positionals) or any(
            kw.get("required") and name in dests for name, kw in grammar.items()):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def _parser():
    import argparse  # only help and usage errors need it

    parser = argparse.ArgumentParser(
        prog="dpda",
        description="Construct, validate, bound, search and simulate "
                    "D2D placement delivery arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_text, handler, grammar) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for name, kw in grammar.items():
            p.add_argument(name, **kw)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or SimpleNamespace(**vars(_parser().parse_args(argv)))
    module, _, name = args.func.partition(".")
    try:
        return getattr(import_module(f"{__package__}.{module}"), name)(args)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, not a verdict: exit 1 would read as "false"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
