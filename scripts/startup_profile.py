#!/usr/bin/env python3
"""Where the start-up time of one ``dpda`` run goes.

Runs ``dpda ARGV...`` once, as the benchmark does (a fresh interpreter with
``PYTHONDONTWRITEBYTECODE=1``, so every ``dpda`` module compiles from
source), under ``-X importtime``, and prints:

* each module the run loads beyond a bare ``python3 -c pass``, with its
  ``-X importtime`` self time, largest first.  The ``dpda`` submodules load
  lazily, on first attribute access (see ``dpda/__init__.py``), so their
  compile and execution time is counted in the self time of the module that
  was importing when they ran, usually ``dpda.cli``;
* each ``dpda`` module the run executed, with its lines, syntax-tree nodes
  and compile time (best of 5, in this process), the nodes of its outermost
  functions (methods included) that the run never entered, and their
  totals: the source that one run compiles, and how much of it the run
  compiles but never calls;
* the heap at exit, once ``main`` has returned: the objects the
  interpreter's exit collections traverse, and the ones ``main`` froze at
  entry, which they skip.

Which functions a run enters comes from a second run of the same argv under
``sys.setprofile``, apart from the timed one; an ARGV that reads ``-``
gets this script's stdin, read once, in both runs.  Timings move from run to
run and machine to machine: read them as a profile, not as a benchmark.  The
run's own output is discarded; its exit code is shown.  ARGV goes to
``dpda`` verbatim, so ``--help`` profiles ``dpda --help``.

A leading ``-S`` runs all three interpreters (the bare reference, the timed
run and the call-trace run) without ``site`` (``python3 -S``), so the
module list also shows the standard-library imports that a ``site`` which
loads them itself would hide.

Usage:
  python scripts/startup_profile.py [-S] search --k 3 --f 3 --z 1 --json
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs dpda.cli.main on sys.argv[1:] and, however it exits, names on stderr
# the dpda modules that executed (a lazy stub is not a plain module yet) and
# the heap left for the exit collections: the objects they traverse, and
# those main froze at entry, which they skip.
CHILD = """\
import gc, sys
from dpda.cli import main
try:
    code = main()
finally:
    print("dpda modules:", *sorted(name for name, m in sys.modules.items()
          if name.startswith("dpda") and type(m).__name__ == "module"), file=sys.stderr)
    print("exit heap:", len(gc.get_objects()), gc.get_freeze_count(), file=sys.stderr)
sys.exit(code)
"""

# Runs dpda.cli.main on sys.argv[1:] under sys.setprofile and names on stderr
# each function (file, first line, name) of the dpda package it entered.
CALLS_CHILD = """\
import sys
from importlib.util import find_spec
home, entered = find_spec("dpda").submodule_search_locations[0], set()
def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(home):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(hook)
try:
    from dpda.cli import main
    code = main()
finally:
    sys.setprofile(None)
    print("dpda entered:", repr(sorted(entered)), file=sys.stderr)
sys.exit(code)
"""


def self_times(code: str, argv: list[str], env: dict, flags: list[str],
               stdin: str | None = None) -> tuple[dict[str, int], str, int]:
    """``-X importtime`` self time in microseconds per module, the rest of
    stderr, and the exit code of ``python3 flags... -c code argv...``."""
    proc = subprocess.run([sys.executable, *flags, "-X", "importtime", "-c", code, *argv],
                          env=env, input=stdin, capture_output=True, text=True)
    times, rest = {}, []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and not line.endswith("imported package"):
            self_us, _cumulative, name = line[len("import time:"):].split("|")
            times[name.strip()] = int(self_us)
        else:
            rest.append(line)
    return times, "\n".join(rest), proc.returncode


def compile_ms(path: Path) -> float:
    source = path.read_text(encoding="utf-8")
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        compile(source, str(path), "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def entered(argv: list[str], env: dict, flags: list[str],
            stdin: str | None) -> set[tuple[str, int, str]]:
    """(file, first line, name) of each dpda function that ``dpda argv...`` enters."""
    proc = subprocess.run([sys.executable, *flags, "-c", CALLS_CHILD, *argv],
                          env=env, input=stdin, capture_output=True, text=True)
    line = next((line for line in proc.stderr.splitlines() if line.startswith("dpda entered:")),
                "dpda entered: []")
    return set(ast.literal_eval(line[len("dpda entered:"):].strip()))


def uncalled_nodes(tree: ast.Module, path: Path, calls: set[tuple[str, int, str]]) -> int:
    """Syntax-tree nodes of the outermost functions in ``tree`` (methods
    included) whose code is not in ``calls``."""
    total, todo = 0, list(ast.iter_child_nodes(tree))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (str(path), first, node.name) not in calls:
                total += sum(1 for _ in ast.walk(node))
        else:
            todo.extend(ast.iter_child_nodes(node))
    return total


def main(argv: list[str]) -> int:
    flags = argv[:1] if argv[:1] == ["-S"] else []
    argv = argv[len(flags):]
    if not argv:
        print(__doc__.rsplit("Usage:", 1)[1].strip(), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    stdin = sys.stdin.read() if "-" in argv else None
    bare, _, _ = self_times("pass", [], env, flags)
    times, stderr, code = self_times(CHILD, argv, env, flags, stdin)
    calls = entered(argv, env, flags, stdin)
    extra = sorted(((us, name) for name, us in times.items() if name not in bare), reverse=True)
    print(f"$ dpda {' '.join(argv)}  [exit {code}]")
    print(f"modules loaded beyond `{' '.join(['python3', *flags])} -c pass`, "
          "-X importtime self time:")
    print(f"{'self_us':>9}  module")
    for us, name in extra:
        print(f"{us:>9}  {name}")
    print(f"{sum(us for us, _ in extra):>9}  total over {len(extra)} modules")
    lines = stderr.splitlines()
    executed = next((line.split()[2:] for line in lines if line.startswith("dpda modules:")), [])
    tracked, frozen = next((line.split()[2:] for line in lines
                            if line.startswith("exit heap:")), ("?", "?"))
    print("dpda modules executed, compiled here from source (best of 5):")
    print(f"{'compile_ms':>10}  {'lines':>5}  {'nodes':>5}  {'uncalled':>8}  module")
    total = [0.0, 0, 0, 0]
    for name in executed:
        parts = name.split(".")
        path = SRC.joinpath(*parts[:-1], parts[-1] + ".py") if len(parts) > 1 \
            else SRC / name / "__init__.py"
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        row = (compile_ms(path), len(source.splitlines()), sum(1 for _ in ast.walk(tree)),
               uncalled_nodes(tree, path, calls))
        total = [t + x for t, x in zip(total, row)]
        print(f"{row[0]:>10.2f}  {row[1]:>5}  {row[2]:>5}  {row[3]:>8}  {name}")
    print(f"{total[0]:>10.2f}  {total[1]:>5}  {total[2]:>5}  {total[3]:>8}  "
          f"total over {len(executed)} modules")
    print(f"at exit: {tracked} tracked objects, {frozen} frozen at entry")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
