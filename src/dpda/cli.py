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
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bounds, construct, search, sim, validation
from .core import Dpda, FormatError, dpda_to_json, parse_dpda, serialize_dpda

__all__ = ["main"]

# bounds.MEMORY_CASES, spelled out so that building the parser does not load
# dpda.bounds for every subcommand; a test keeps the two equal.
_MEMORY_CASES = ("1/K", "2/K", "(K-2)/K", "(K-1)/K")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load(path: str) -> Dpda:
    data = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_dpda(data)


def _json_dumps(obj: dict) -> str:
    import json  # only --json output needs it

    return json.dumps(obj, indent=2) + "\n"


def _cmd_construct(args: argparse.Namespace) -> int:
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


def _cmd_validate(args: argparse.Namespace) -> int:
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


def _cmd_bounds(args: argparse.Namespace) -> int:
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


def _parse_demand(literal: str, k: int) -> sim.Demand:
    try:
        d_part, b_part = literal.split(";")
        d = tuple(int(x) for x in d_part.split(","))
        b = tuple(int(x) for x in b_part.split(","))
    except ValueError as exc:
        raise ValueError(f"demand literal must be 'd0,d1,...;b0,b1,...': {exc}") from exc
    if len(d) != k or len(b) != k:
        raise ValueError(f"demand names {len(d)} users, array has {k}")
    return sim.Demand(d=d, b=b)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if (args.demand is None) == (args.trials is None):
        raise ValueError("provide exactly one of --demand or --trials")
    p = _load(args.path)
    demand = None if args.demand is None else _parse_demand(args.demand, p.k)
    report = sim.simulate(p, args.files, args.blocks, args.packet_size,
                          demand=demand, trials=args.trials, seed=args.seed)
    if args.json:
        _emit(_json_dumps(report.to_json()), None)
    else:
        j = report.to_json()
        _emit("".join(f"{key}: {j[key]}\n" for key in j), None)
    return 0 if report.success else 1


def _cmd_search(args: argparse.Namespace) -> int:
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


def _cmd_compare(args: argparse.Namespace) -> int:
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpda",
        description="Construct, validate, bound, search and simulate "
                    "D2D placement delivery arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family array")
    c.add_argument("--family", required=True, choices=["jcm", "grid", "even", "odd"])
    c.add_argument("--q", type=int, help="size parameter for grid/even/odd")
    c.add_argument("--k", type=int, help="user count for jcm")
    c.add_argument("--t", type=int, help="memory parameter for jcm (ratio t/K)")
    c.add_argument("--lift", type=int, help="stack into an L'-block array")
    c.add_argument("--out", help="output path (default stdout)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("validate", help="check the DPDA conditions")
    v.add_argument("path", help="array file ('-' for stdin)")
    v.add_argument("--optimal", action="store_true",
                   help="also require the minimal-rate conditions")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_validate)

    b = sub.add_parser("bounds", help="rate/packet-number lower bounds")
    b.add_argument("--k", type=int)
    b.add_argument("--case", choices=list(_MEMORY_CASES))
    b.add_argument("--from", dest="from_path", help="score an array file instead")
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("simulate", help="run the protocol on synthetic packets")
    s.add_argument("path", help="array file ('-' for stdin)")
    s.add_argument("--files", type=int, required=True, help="library size N")
    s.add_argument("--blocks", type=int, required=True, help="blocks per file L")
    s.add_argument("--packet-size", type=int, default=64)
    s.add_argument("--demand", help="literal 'd0,d1,...;b0,b1,...'")
    s.add_argument("--trials", type=int, help="number of random demands")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_simulate)

    q = sub.add_parser("search", help="exhaustive minimum-S search")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--f", type=int, required=True)
    q.add_argument("--z", type=int, required=True)
    q.add_argument("--max-s", type=int, help="default (F-Z)*K")
    q.add_argument("--cells-limit", type=int, help="override the search guard")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_search)

    m = sub.add_parser("compare", help="packet-number ratio against the baseline")
    m.add_argument("path", help="array file ('-' for stdin)")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
