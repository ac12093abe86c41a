"""Tests of the benchmark itself; run with ``python3 -m pytest bench/test_bench.py``.

Each workload runs at its shortest length (one round), untraced and traced.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def _result(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def results() -> dict:
    cache: dict = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            assert proc.returncode == 0, proc.stderr
            cache[workload, trace] = _result(proc.stdout)
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_every_metric_is_emitted_with_its_unit(results, workload, trace):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    metrics = results(workload, trace)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_no_op_fails(results, workload, trace):
    result = results(workload, trace)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True


def test_traced_layers_match_the_workload(results):
    families = results("families", 1)["metrics"]
    assert families["validation.validate_per_op"]["value"] == 4
    protocol = results("protocol", 1)["metrics"]
    search = results("search", 1)["metrics"]
    for name, metric in families.items():
        if name.startswith(("sim.", "search.")) and name.endswith(".calls"):
            assert metric["value"] == 0, name
    for name, metric in protocol.items():
        if name.startswith("validation.") and name.endswith(".calls"):
            assert metric["value"] == 0, name
    assert protocol["sim.simulate.calls"]["value"] > 0
    assert search["search.exists_per_instance"]["value"] > 1
    for metrics in (families, protocol, search):
        assert metrics["trace.count_failures"]["value"] == 0


# A wrong expected answer for the first op of each workload's deck.
TAMPER = {
    "families": lambda exp: exp.update(header={**exp["header"], "f": exp["header"]["f"] + 1}),
    "protocol": lambda exp: exp.update(packets_sent=exp["packets_sent"] + 1),
    "search": lambda exp: exp.update(minimal_s=(exp["minimal_s"] or 0) + 1),
}


@pytest.mark.parametrize("workload", sorted(workloads.DECKS))
def test_wrong_expected_answer_counts_as_failure(monkeypatch, capsys, workload):
    build = workloads.DECKS[workload]

    def short_tampered_deck(seed: int) -> workloads.Deck:
        deck = build(seed)
        keep = []
        for cls in workloads.CLASSES[workload]:
            group = next(g for g in deck.groups if any(op.cls == cls for op in g))
            if group not in keep:
                keep.append(group)
        deck.groups = keep
        TAMPER[workload](keep[0][0].expect)
        return deck

    monkeypatch.setitem(workloads.DECKS, workload, short_tampered_deck)
    code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1"])
    result = _result(capsys.readouterr().out)
    assert code == 0
    assert result["failed"] == 1 and result["correct"] is False
    assert result["attempted"] == sum(map(len, short_tampered_deck(SEED).groups))


def test_mutations_fail_first_at_their_condition():
    sys.path.insert(0, str(ROOT / "src"))
    from dpda import parse_dpda, validate

    for family, params, lp in [("grid", (4,), 1), ("even", (4,), 2), ("odd", (3,), 1),
                               ("jcm", (6, 3), 3)]:
        args = workloads.construct_args(family, params, lp)
        text = subprocess.run([*run.CLI, *args], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True, check=True).stdout
        kinds = ["c1", "c2", "c3", "c4a", "c4b"] + (["c0"] if lp > 1 else [])
        for condition in kinds:
            for seed in range(5):
                bad = workloads.mutate(text, condition, random.Random(seed))
                assert validate(parse_dpda(bad)).first_failure == condition
