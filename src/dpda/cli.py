"""Command-line front door.

One verb per capability: ``construct``, ``validate``, ``bounds``,
``simulate``, ``search``, ``compare``.  Human-readable text goes to stdout;
``--json`` switches to machine output.  Exit codes: 0 success / verdict
true, 1 verdict false or failed run, 2 usage or input error, 3 internal
error (a failed assertion or any other unexpected exception).  Identical
invocations on identical inputs produce byte-identical output.

No domain logic lives here; every subcommand is a thin adapter over the
library modules.  Those load on first use (see :mod:`dpda`), so a run pays
only for the modules its subcommand calls.

``_VERBS`` is the one grammar of the command line.  A plain well-formed argv
is read straight from it by ``_fast_args``; ``argparse``, built from the same
table, loads only for help, usage errors and the argv forms the fast path
leaves to it (abbreviations, ``--opt=value``, values starting with ``-``).
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from . import bounds, construct, read, search, sim, validation
from .core import Dpda, FormatError, dpda_to_json, serialize_dpda

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


def _json_dumps(obj: dict) -> str:
    import json  # only --json output needs it

    return json.dumps(obj, indent=2) + "\n"


def _cmd_construct(args: SimpleNamespace) -> int:
    if args.family == "jcm":
        if args.k is None or args.t is None:
            raise ValueError("--family jcm requires --k and --t")
        p = construct.construct_jcm(args.k, args.t)
    else:
        if args.q is None:
            raise ValueError(f"--family {args.family} requires --q")
        builder = {"grid": construct.construct_grid, "even": construct.construct_even,
                   "odd": construct.construct_odd}
        p = builder[args.family](args.q)
    if args.lift is not None:
        p = construct.lift(p, args.lift)
    text = _json_dumps(dpda_to_json(p)) if args.json else serialize_dpda(p)
    _emit(text, args.out)
    return 0


def _cmd_validate(args: SimpleNamespace) -> int:
    report = validation.validate(_load(args.path))
    ok = report.valid
    payload: dict = {"validation": report.to_json()}
    lines = [
        f"{name}: {'ok' if getattr(report, name).passed else 'FAIL ' + repr(getattr(report, name).witness)}"
        for name in validation.CONDITION_ORDER
    ]
    if args.optimal:
        opt = report.rate_optimality
        if opt is not None:
            payload["rate_optimality"] = opt.to_json()
            payload["broadcast_counts"] = list(report.broadcast_counts)
            lines.append(f"rate_is_minimal: {'ok' if opt.rate_is_minimal else 'FAIL'}")
            ok = opt.rate_is_minimal
        else:
            payload["rate_optimality"] = None
            lines.append("rate_is_minimal: skipped (invalid array)")
    lines.append(f"verdict: {'valid' if ok else 'invalid'}")
    _emit(_json_dumps(payload) if args.json else "\n".join(lines) + "\n", None)
    return 0 if ok else 1


def _cmd_bounds(args: SimpleNamespace) -> int:
    if args.from_path is not None:
        report = bounds.bounds_for_array(_load(args.from_path))
    else:
        if args.k is None or args.case is None:
            raise ValueError("provide --k and --case, or --from FILE")
        report = bounds.bounds_for_case(args.k, args.case)
    if args.json:
        _emit(_json_dumps(report.to_json()), None)
        return 0
    j = report.to_json()
    rows = [[key, j[key]] for key in j if key != "notes" and j[key] is not None]
    text = bounds.format_table(["field", "value"], rows)
    for note in report.notes:
        text += f"note: {note}\n"
    _emit(text, None)
    return 0


def _parse_demand(literal: str) -> sim.Demand:
    try:
        d_part, b_part = literal.split(";")
        d = tuple(int(x) for x in d_part.split(","))
        b = tuple(int(x) for x in b_part.split(","))
    except ValueError as exc:
        raise ValueError(f"demand literal must be 'd0,d1,...;b0,b1,...': {exc}") from exc
    return sim.Demand(d=d, b=b)


def _cmd_simulate(args: SimpleNamespace) -> int:
    if (args.demand is None) == (args.trials is None):
        raise ValueError("provide exactly one of --demand or --trials")
    p = _load(args.path)
    demand = None if args.demand is None else _parse_demand(args.demand)
    if demand is not None:
        sim._check_demand(demand, p.k, args.files, args.blocks, p.lp)
    report = sim.simulate(p, args.files, args.blocks, args.packet_size,
                          demand=demand, trials=args.trials, seed=args.seed)
    if args.json:
        _emit(_json_dumps(report.to_json()), None)
    else:
        j = report.to_json()
        _emit("".join(f"{key}: {j[key]}\n" for key in j), None)
    return 0 if report.success else 1


def _cmd_search(args: SimpleNamespace) -> int:
    s_max = args.max_s if args.max_s is not None else (args.f - args.z) * args.k
    try:
        result = search.search_min_s(args.k, args.f, args.z, s_max,
                                     cells_limit=args.cells_limit)
    except search.SearchSpaceError as exc:
        raise ValueError(str(exc)) from exc
    if args.json:
        _emit(_json_dumps(result.to_json()), None)
    else:
        if result.feasible:
            _emit(f"minimal S = {result.minimal_s} "
                  f"(nodes explored: {result.nodes_explored})\n"
                  + serialize_dpda(result.witness), None)
        else:
            _emit(f"no array with S <= {s_max} "
                  f"(nodes explored: {result.nodes_explored})\n", None)
    return 0 if result.feasible else 1


def _cmd_compare(args: SimpleNamespace) -> int:
    comparison = bounds.compare_to_jcm(_load(args.path))
    if args.json:
        _emit(_json_dumps(comparison.to_json()), None)
    else:
        text = bounds.format_table(
            ["k", "t", "f_ours", "f_jcm", "ratio", "rate"],
            [[comparison.k, comparison.t, comparison.f_ours, comparison.f_jcm,
              comparison.ratio, comparison.rate]],
        )
        _emit(text, None)
    return 0


_JSON = {"action": "store_true"}
_PATH = {"help": "array file ('-' for stdin)"}
_REQUIRED_INT = {"type": int, "required": True}

# The grammar: verb -> (help, handler name, argument -> add_argument keywords),
# in help order.  Handlers are looked up by name when a run dispatches.
_VERBS = {
    "construct": ("build a family array", "_cmd_construct", {
        "--family": {"required": True, "choices": ["jcm", "grid", "even", "odd"]},
        "--q": {"type": int, "help": "size parameter for grid/even/odd"},
        "--k": {"type": int, "help": "user count for jcm"},
        "--t": {"type": int, "help": "memory parameter for jcm (ratio t/K)"},
        "--lift": {"type": int, "help": "stack into an L'-block array"},
        "--out": {"help": "output path (default stdout)"},
        "--json": _JSON,
    }),
    "validate": ("check the DPDA conditions", "_cmd_validate", {
        "path": _PATH,
        "--optimal": {"action": "store_true", "help": "also require the minimal-rate conditions"},
        "--json": _JSON,
    }),
    "bounds": ("rate/packet-number lower bounds", "_cmd_bounds", {
        "--k": {"type": int},
        "--case": {"choices": _MEMORY_CASES},
        "--from": {"dest": "from_path", "help": "score an array file instead"},
        "--json": _JSON,
    }),
    "simulate": ("run the protocol on synthetic packets", "_cmd_simulate", {
        "path": _PATH,
        "--files": {"type": int, "required": True, "help": "library size N"},
        "--blocks": {"type": int, "required": True, "help": "blocks per file L"},
        "--packet-size": {"type": int, "default": 64},
        "--demand": {"help": "literal 'd0,d1,...;b0,b1,...'"},
        "--trials": {"type": int, "help": "number of random demands"},
        "--seed": {"type": int, "default": 0},
        "--json": _JSON,
    }),
    "search": ("exhaustive minimum-S search", "_cmd_search", {
        "--k": _REQUIRED_INT,
        "--f": _REQUIRED_INT,
        "--z": _REQUIRED_INT,
        "--max-s": {"type": int, "help": "default (F-Z)*K"},
        "--cells-limit": {"type": int, "help": "override the search guard"},
        "--json": _JSON,
    }),
    "compare": ("packet-number ratio against the baseline", "_cmd_compare",
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
    values = {"command": argv[0], "func": globals()[handler]}
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
        p.set_defaults(func=globals()[handler])
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or SimpleNamespace(**vars(_parser().parse_args(argv)))
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as exc:
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
