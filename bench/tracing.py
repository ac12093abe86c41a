"""Span tracing of the dpda package from outside it, and per-layer metrics.

The traced-run driver (``trace_driver.py``) calls :func:`install`, which
replaces each function named in :data:`LAYERS` by a wrapper in every
``dpda`` module namespace that binds it, so calls between modules are
traced too.  Nothing under ``src/`` changes.

A wrapped call records one span ``[id, parent, name, start_ns, end_ns,
raised, hidden_ns]``; ``hidden_ns`` is time the tracer itself spent inside
the span computing counts for its children, which self time excludes.
Each op appends one JSON line ``{"op", "argv", "startup_ns", "spans",
"counts"}`` to the run's span file.  :func:`layer_metrics` reads that file.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

# Layer -> (module, traced public functions).  cli.main is the op's root span.
LAYERS = {
    "cli": ("dpda.cli", ("main",)),
    "core": ("dpda.core", ("parse_dpda", "serialize_dpda", "dpda_to_json",
                           "slot_cells", "slot_senders")),
    "construct": ("dpda.construct", ("construct_grid", "construct_even",
                                     "construct_odd", "construct_jcm", "lift")),
    "validation": ("dpda.validation", ("validate", "check_rate_optimal",
                                       "broadcast_counts")),
    "bounds": ("dpda.bounds", ("bounds_for_array", "compare_to_jcm")),
    "sim": ("dpda.sim", ("simulate", "make_library", "place", "user_cache_bytes",
                         "deliver", "decode")),
    "search": ("dpda.search", ("search_min_s", "exists_dpda")),
}

# Counts taken at the layer boundaries, with their units.
COUNTS = {
    "core.cells_parsed": "count",
    "construct.cells_built": "count",
    "validation.cells_checked": "count",
    "validation.rejects": "count",
    "sim.trials": "count",
    "sim.failures": "count",
    "sim.decoded_bytes": "B",
    "sim.library_bytes": "B",
    "sim.cache_bytes": "B",
    "sim.xor_bytes": "B",
    "search.nodes": "count",
    "search.instances_exhausted": "count",
    "trace.count_failures": "count",
}


def _cells(p) -> int:
    return p.lp * p.f * p.k


def _count_decode(counts: Counter, args: tuple, result) -> None:
    p, _cache, signals, _dem, k = args[:5]
    by_slot = {sig.slot: sig for sig in signals}
    xors = 0
    for row in p.grid:
        e = row[k]
        if e is not None:
            xors += len(by_slot[e.slot].constituents) - 1
    size = len(signals[0].payload) if signals else 0
    counts["sim.xor_bytes"] += xors * size
    counts["sim.decoded_bytes"] += sum(len(v) for v in result.values())


def _count_validate(counts: Counter, args: tuple, result) -> None:
    counts["validation.cells_checked"] += _cells(args[0])
    counts["validation.rejects"] += not result.valid


def _count_search(counts: Counter, args: tuple, result) -> None:
    counts["search.nodes"] += result.nodes_explored
    counts["search.instances_exhausted"] += result.exhausted and not result.feasible


def _count_built(counts: Counter, args: tuple, result) -> None:
    counts["construct.cells_built"] += _cells(result)


# Function name -> counter(counts, args, result), run after the call returns.
# The byte counts are computed from sizes, not measured.
_COUNTERS = {
    "parse_dpda": lambda c, a, r: c.update({"core.cells_parsed": _cells(r)}),
    "construct_grid": _count_built,
    "construct_even": _count_built,
    "construct_odd": _count_built,
    "construct_jcm": _count_built,
    "lift": _count_built,
    "validate": _count_validate,
    "search_min_s": _count_search,
    "simulate": lambda c, a, r: c.update({"sim.trials": r.trials,
                                          "sim.failures": len(r.failures)}),
    "make_library": lambda c, a, r: c.update(
        {"sim.library_bytes": r.n * r.l * r.f * r.packet_size}),
    "user_cache_bytes": lambda c, a, r: c.update(
        {"sim.cache_bytes": len(r) * a[0].packet_size}),
    "deliver": lambda c, a, r: c.update(
        {"sim.xor_bytes": sum(len(s.constituents) for s in r) * a[2].packet_size}),
    "decode": _count_decode,
}


class Tracer:
    """Spans and counts of one op, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [len(self.spans), -1 if parent is None else parent[0], name, clock(), 0, 0, 0]
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[4] = clock()
                self.stack.pop()
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except Exception:  # a changed signature must not fail the op
                    self.counts["trace.count_failures"] += 1
                if parent is not None:
                    parent[6] += clock() - span[4]
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded dpda namespace."""
        modules = [m for n, m in sys.modules.items() if n == "dpda" or n.startswith("dpda.")]
        for module_name, names in LAYERS.values():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name, None)
                if original is None:  # removed from the package: reads as 0 calls
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def dump(self, path: Path, op_id: int, argv: list[str], startup_ns: int) -> None:
        record = {"op": op_id, "argv": argv, "startup_ns": startup_ns,
                  "spans": self.spans, "counts": dict(self.counts)}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {"cli.startup_s": "s"}
    for layer, (_module, names) in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(COUNTS)
    units["validation.validate_per_op"] = "calls/op"
    units["search.exists_per_instance"] = "calls/inst"
    units["trace.overhead_ms"] = "ms"
    return units


def layer_metrics(span_file: Path, rounds: int, overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics of a traced run, per round of the workload's deck.

    Self time is a span's duration minus its children's durations and the
    tracer's own hidden time.  ``validation.validate_per_op`` has base
    ``validate --optimal`` ops; ``search.exists_per_instance`` has base
    ``search_min_s`` calls.
    """
    layer_of = {name: layer for layer, (_m, names) in LAYERS.items() for name in names}
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    errors: Counter = Counter()
    counts: Counter = Counter()
    startup_ns = 0
    optimal_ops = optimal_validates = 0
    with open(span_file, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            startup_ns += record["startup_ns"]
            counts.update(record["counts"])
            spans = record["spans"]
            child_ns = [0] * len(spans)
            for sid, parent, _name, start, end, _raised, _hidden in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for sid, _parent, name, start, end, raised, hidden in spans:
                calls[name] += 1
                self_ns[name] += end - start - child_ns[sid] - hidden
                errors[layer_of[name]] += raised
            if record["argv"][:1] == ["validate"] and "--optimal" in record["argv"]:
                optimal_ops += 1
                optimal_validates += sum(1 for s in spans if s[2] == "validate")
    out: dict[str, float] = {"cli.startup_s": startup_ns / 1e9 / rounds}
    for layer, (_module, names) in LAYERS.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = calls[name] / rounds
            out[f"{layer}.{name}.self_s"] = self_ns[name] / 1e9 / rounds
        out[f"{layer}.self_s"] = sum(self_ns[name] for name in names) / 1e9 / rounds
        out[f"{layer}.errors"] = errors[layer] / rounds
    for name in COUNTS:
        out[name] = counts[name] / rounds
    out["validation.validate_per_op"] = optimal_validates / optimal_ops if optimal_ops else 0
    out["search.exists_per_instance"] = (
        calls["exists_dpda"] / calls["search_min_s"] if calls["search_min_s"] else 0)
    out["trace.overhead_ms"] = overhead_ms
    return out
