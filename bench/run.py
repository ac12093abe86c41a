"""Closed-loop benchmark of the ``dpda`` command line.

Usage (from the repository root)::

    python3 bench/run.py --workload families|protocol|search \\
        --seed N --seconds S --trace 0|1

One client, one child process at a time: each op is a fresh
``dpda …`` process, spawned only after the previous one has exited, so every
timing includes interpreter start.  The program is run from ``src/`` of this
checkout.  Every op's exit code and output are checked against an answer the
benchmark knows independently (closed forms, the construction of a mutation,
a recorded table of search minima).

A run plays whole rounds of the workload's seeded deck (see
``workloads.py``), ``max(1, round(seconds / ROUND_S))`` of them, so the op
count and with it the tail percentile do not depend on the machine's speed.

The speed of a shared machine drifts by a quarter within minutes, and
interpreter start moves with it.  So right before each op the benchmark
also times a bare interpreter start (``python3 -c pass``), and the timing
metrics are each op's wall time in units of the median of the five starts
around it (unit ``start``): the drift cancels, while anything ``dpda`` adds
to a run, its own imports included, still counts.  The raw wall times are
in the context line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
twice, untraced and then through ``trace_driver.py``, and prints the
per-layer metrics, per round.  The last stdout line is the result object;
the line before it records the run's context.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Wall seconds of one untraced round, reference starts included, on
# Python 3.11 with 2 cores.
ROUND_S = {"families": 30.0, "protocol": 9.5, "search": 22.0}
SETUPS = 5
OP_TIMEOUT_S = 120

CLI = [sys.executable, "-c", "import sys; from dpda.cli import main; sys.exit(main())"]
DRIVER = [sys.executable, str(HERE / "trace_driver.py")]
REFERENCE = [sys.executable, "-c", "pass"]

END_TO_END = {
    "setup_s": "s",
    "ops_per_start": "1/start",
    "op_p50": "start",
    "op_tail": "start",
    "peak_rss_mb": "MB",
    "class_a_p50": "start",
    "class_b_p50": "start",
}


@dataclass(frozen=True, slots=True)
class Result:
    """One finished op: exit code, stdout, stderr, wall seconds, max RSS in KiB."""

    code: int
    out: str
    err: str
    wall_s: float
    maxrss_kb: int


def spawn(cmd: list[str], cwd: Path, env: dict) -> Result:
    """Run ``cmd`` to completion; time it from spawn to exit."""
    err_path = cwd / ".stderr"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        err.seek(0)
        errtext = err.read().decode("utf-8", "replace")
    return Result(proc.returncode, out.decode("utf-8", "replace"), errtext, wall, usage.ru_maxrss)


def setup(deck: workloads.Deck, seed: int, workdir: Path, env: dict) -> None:
    """Write the deck's input files and mutated copies, then warm up once."""
    workdir.mkdir(parents=True)
    for name, args in deck.files.items():
        res = spawn(CLI + args + ["--out", name], workdir, env)
        if res.code != 0:
            raise RuntimeError(f"set-up construct {args} exited {res.code}: {res.err.strip()}")
    for name, (source, condition) in deck.mutations.items():
        text = (workdir / source).read_text(encoding="utf-8")
        rng = random.Random(f"mutate/{seed}/{name}")
        (workdir / name).write_text(workloads.mutate(text, condition, rng), encoding="utf-8")
    res = spawn(CLI + ["--help"], workdir, env)
    if res.code != 0:
        raise RuntimeError(f"warm-up exited {res.code}: {res.err.strip()}")


def rounds_for(workload: str, seconds: int, trace: bool) -> int:
    return max(1, round(seconds / (ROUND_S[workload] * (2 if trace else 1))))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that
    percentile; the maximum when there are 10 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def by_class(classes: list[str], values: list[float]) -> dict[str, list[float]]:
    grouped: dict[str, list[float]] = {}
    for cls, value in zip(classes, values):
        grouped.setdefault(cls, []).append(value)
    return grouped


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dpda" / "cli.py").is_file():
        print(f"error: no dpda sources under {SRC}", file=sys.stderr)
        return 2

    # A plain kill would skip the clean-up below and orphan the current op.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return run(args, env, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args: argparse.Namespace, env: dict, run_dir: Path) -> int:
    deck = workloads.DECKS[args.workload](args.seed)
    trace = bool(args.trace)

    setup_times = []
    for i in range(SETUPS):
        start = time.perf_counter()
        setup(deck, args.seed, run_dir / f"setup{i}", env)
        setup_times.append(time.perf_counter() - start)
    workdir = run_dir / f"setup{SETUPS - 1}"

    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if trace:
        span_file.unlink(missing_ok=True)

    rounds = rounds_for(args.workload, args.seconds, trace)
    order_rng = random.Random(f"order/{args.workload}/{args.seed}")
    samples: list[tuple[str, Result, float | None]] = []  # class, op, reference start
    overheads: list[float] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    for _ in range(rounds):
        groups = list(deck.groups)
        order_rng.shuffle(groups)
        for group in groups:
            for op in group:
                ref = None if trace else spawn(REFERENCE, workdir, env)
                if ref is not None and ref.code != 0:
                    raise RuntimeError(f"reference start exited {ref.code}: {ref.err.strip()}")
                plain = spawn(CLI + op.argv, workdir, env)
                runs = [plain]
                if trace:
                    cmd = DRIVER + [str(time.monotonic_ns()), str(len(samples)), str(span_file), "--"]
                    traced = spawn(cmd + op.argv, workdir, env)
                    runs.append(traced)
                    overheads.append((traced.wall_s - plain.wall_s) * 1000)
                for res in runs:
                    attempted += 1
                    why = workloads.check(op, res.code, res.out, workdir)
                    if why is not None:
                        failures.append(f"{' '.join(op.argv)}: {why}")
                samples.append((op.cls, plain, ref and ref.wall_s))
    phase_s = time.perf_counter() - start

    classes = [cls for cls, _, _ in samples]
    walls = [res.wall_s * 1000 for _, res, _ in samples]
    ms_by_class = by_class(classes, walls)
    tail_ms, tail_pct = tail(walls)
    class_a, class_b = workloads.CLASSES[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_by_class": {cls: len(v) for cls, v in sorted(ms_by_class.items())},
        "error_rate": len(failures) / attempted,
        "failures": failures[:5],
        "op_samples": len(walls),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": 10 if len(walls) > 10 else 0,
        "ops_per_s": len(walls) / phase_s,
        "op_ms_p50": statistics.median(walls),
        "op_ms_tail": tail_ms,
        f"{class_a}_ms_p50": statistics.median(ms_by_class[class_a]),
        f"{class_b}_ms_p50": statistics.median(ms_by_class[class_b]),
        "setup_s_all": setup_times,
        "phase_s": phase_s,
    }
    if trace:
        record["span_file"] = str(span_file.relative_to(ROOT))
        values = tracing.layer_metrics(span_file, rounds, statistics.median(overheads))
        units = tracing.metric_units()
    else:
        refs = [ref_s for _, _, ref_s in samples]
        # Each op against the median of the five reference starts around it:
        # close enough in time to follow the drift, and steadier than one start.
        costs = [res.wall_s / statistics.median(refs[max(0, i - 2):i + 3])
                 for i, (_, res, _) in enumerate(samples)]
        cost_by_class = by_class(classes, costs)
        record["start_ms_p50"] = statistics.median(refs) * 1000
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_start": len(costs) / sum(costs),
            "op_p50": statistics.median(costs),
            "op_tail": tail(costs)[0],
            "peak_rss_mb": max(res.maxrss_kb for _, res, _ in samples) / 1024,
            "class_a_p50": statistics.median(cost_by_class[class_a]),
            "class_b_p50": statistics.median(cost_by_class[class_b]),
        }
        units = END_TO_END
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
