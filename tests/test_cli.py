"""CLI adapters: output equality with the library, exit codes, JSON."""

from __future__ import annotations

import ast
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import random
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpda
from dpda import (
    bounds_for_array,
    bounds_for_case,
    cli,
    compare_to_jcm,
    construct_grid,
    construct_jcm,
    dpda_to_json,
    jcm_params,
    lift,
    parse_dpda,
    search_min_s,
    serialize_dpda,
    simulate,
    validate,
)
from dpda import jsonout
from dpda.bounds import MEMORY_CASES
from dpda.cli import main

from fuzz import differential_corpus
from golden import P4_TEXT, Q_LIFTED_P4_TEXT
from search_reference import instances

# Full expected stdout of `validate` and `simulate`, one file per array and
# flag set: `p4.optimal.json.out` holds the output of
# `validate p4 --optimal --json`, `p4.simulate.json.out` that of
# `simulate p4 ... --json`.  `search.json.out`, `search24.json.out`,
# `search.out`, `bounds_compare.out`, `grid_mutated.json.out` and
# `grid_gap.out` hold one transcript block per run: the argv, stdout, and the
# exit code.  `compare_families.out`, `certify_floors.out` and
# `certify_floors--max-cells-36.out` hold the stdout of those scripts, the
# last two at `--max-cells 12` and `36`.  `help.out` and `usage.out` hold
# argparse's help text and usage errors: the argv, stdout or stderr, and the
# exit code.  `decks.sha256` holds one output digest per op of the benchmark
# decks at seed 1.
GOLDEN_CLI = Path(__file__).parent / "golden_cli"
SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"


def _jcm_split_text() -> str:
    """A valid but rate-suboptimal array: one slot of jcm(4,2) split in two."""
    text = serialize_dpda(construct_jcm(4, 2)).replace("S=12", "S=13")
    return text.replace("* 0^0 * 6^0", "* 12^0 * 6^0")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_even_q2_prints_reference(capsys):
    code, out, _ = run(capsys, "construct", "--family", "even", "--q", "2")
    assert code == 0
    assert out == P4_TEXT


def test_construct_with_lift(capsys):
    code, out, _ = run(capsys, "construct", "--family", "even", "--q", "2",
                       "--lift", "2")
    assert code == 0
    assert out == Q_LIFTED_P4_TEXT


def test_construct_jcm_json(capsys):
    code, out, _ = run(capsys, "construct", "--family", "jcm",
                       "--k", "4", "--t", "2", "--json")
    assert code == 0
    j = json.loads(out)
    assert (j["k"], j["f"], j["z"], j["s"]) == (4, 12, 6, 12)


def test_construct_matches_library_byte_for_byte(capsys):
    code, out, _ = run(capsys, "construct", "--family", "grid", "--q", "3")
    assert code == 0
    assert out == serialize_dpda(construct_grid(3))


def test_construct_to_file(tmp_path, capsys):
    target = tmp_path / "p4.dpda"
    code, out, _ = run(capsys, "construct", "--family", "even", "--q", "2",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == P4_TEXT


def test_construct_missing_params_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "--family", "jcm")
    assert code == 2
    assert "requires" in err


def test_construct_q_family_without_q_is_usage_error(capsys):
    code, out, err = run(capsys, "construct", "--family", "grid")
    assert (code, out, err) == (2, "", "error: --family grid requires --q\n")


def test_validate_ok(tmp_path, capsys):
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, _ = run(capsys, "validate", str(f), "--optimal")
    assert code == 0
    assert "verdict: valid" in out


def test_validate_json(tmp_path, capsys):
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, _ = run(capsys, "validate", str(f), "--optimal", "--json")
    assert code == 0
    j = json.loads(out)
    assert j["validation"]["valid"] is True
    assert j["rate_optimality"]["rate_is_minimal"] is True
    assert j["broadcast_counts"] == [1, 1, 1, 1]


def test_validate_detects_invalid(tmp_path, capsys):
    f = tmp_path / "bad.dpda"
    f.write_text(P4_TEXT.replace("S=4", "S=5"))
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert "c2: FAIL" in out


def test_validate_optimal_fails_on_suboptimal(tmp_path, capsys):
    f = tmp_path / "jcm.dpda"
    f.write_text(serialize_dpda(construct_jcm(4, 2)))
    # valid and optimal
    assert run(capsys, "validate", str(f), "--optimal")[0] == 0
    f.write_text(_jcm_split_text())
    assert run(capsys, "validate", str(f))[0] == 0
    assert run(capsys, "validate", str(f), "--optimal")[0] == 1


GOLDEN_ARRAYS = {
    "p4": P4_TEXT,  # valid and rate-optimal
    "jcm_split": _jcm_split_text(),  # valid, rate-suboptimal
    "p4_s5": P4_TEXT.replace("S=4", "S=5"),  # fails c2
    # slot 1 rerouted through user 0, whose cache misses its packets
    "p4_rerouted": P4_TEXT.replace("1^1", "1^0"),
    # a cell moved into slot 2, whose other cell's column caches neither
    # packet's row (fails c4b)
    "jcm_c4b": serialize_dpda(construct_jcm(4, 2)).replace("1^1 * * 9^1", "1^1 * * 2^2"),
    "grid_lifted": serialize_dpda(lift(construct_grid(3), 2)),  # valid, two bands
}


# One copy of grid_lifted per condition, changed so that the condition
# fails first: a band-1 star overwritten by a token of its row
# (c0), Z + 1 (c1), S + 1 (c2), slot 0 handed to the column of its own cell
# (0, 1) (c3), slot 0 copied over slot 1 in row 0 (c4a), and slot 0 moved into
# cell (2, 4), whose crossing cells with (0, 1) and (1, 0) are coded (c4b).
GRID_MUTATIONS = {
    "c0": [("* 18^3 19^3 * 27^0 28^0", "18^3 18^3 19^3 * 27^0 28^0")],
    "c1": [("Z=3", "Z=4")],
    "c2": [("S=36", "S=37")],
    "c3": [("* 0^3 1^3 * 9^0 10^0", "* 0^1 1^3 * 9^0 10^0"),
           ("0^3 * 2^3 * 12^1 13^1", "0^1 * 2^3 * 12^1 13^1")],
    "c4a": [("* 0^3 1^3 * 9^0 10^0", "* 0^3 0^3 * 9^0 10^0")],
    "c4b": [("1^3 2^3 * * 15^2 16^2", "1^3 2^3 * * 0^3 16^2")],
}


def _slot_gap_text() -> str:
    """grid_lifted with S raised to 37 and slot 0 renamed 36: ids 1..36 are
    used, so C2 and slot contiguity both fail at the missing id 0."""
    header, *rows = GOLDEN_ARRAYS["grid_lifted"].replace("S=36", "S=37").splitlines()
    rows = [" ".join("36" + t[1:] if t.startswith("0^") else t for t in row.split())
            for row in rows]
    return "\n".join([header, *rows]) + "\n"


def _transcript(capsys, tmp_path, texts: dict[str, str], *argvs: tuple[str, ...]) -> str:
    """One block per argv run on each array: argv, stdout and exit code.

    Each array is written to ``<name>.dpda``; ``FILE`` in an argv stands for
    that file, and the block names it by file name alone.
    """
    blocks = []
    for name, text in texts.items():
        f = tmp_path / f"{name}.dpda"
        f.write_text(text)
        for argv in argvs:
            code, out, err = run(capsys, *(str(f) if a == "FILE" else a for a in argv))
            assert err == "", (name, argv)
            shown = " ".join(f.name if a == "FILE" else a for a in argv)
            blocks.append(f"$ {shown}\n{out}[exit {code}]\n")
    return "".join(blocks)


def test_bounds_and_compare_golden_stdout(tmp_path, capsys):
    texts = {name: GOLDEN_ARRAYS[name] for name in ("p4", "jcm_split", "grid_lifted")}
    assert _transcript(
        capsys, tmp_path, texts,
        ("bounds", "--from", "FILE"), ("bounds", "--from", "FILE", "--json"),
        ("compare", "FILE"), ("compare", "FILE", "--json"),
    ) == (GOLDEN_CLI / "bounds_compare.out").read_text()


def test_validate_mutated_family_golden_stdout(tmp_path, capsys):
    texts = {}
    for condition, edits in GRID_MUTATIONS.items():
        text = GOLDEN_ARRAYS["grid_lifted"]
        for old, new in edits:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        assert validate(parse_dpda(text)).first_failure == condition
        texts[f"grid_{condition}"] = text
    assert _transcript(capsys, tmp_path, texts, ("validate", "FILE", "--json")) == (
        GOLDEN_CLI / "grid_mutated.json.out").read_text()


def test_validate_slot_gap_golden_stdout(tmp_path, capsys):
    report = validate(parse_dpda(_slot_gap_text()))
    assert report.first_failure == "c2" and not report.slot_contiguity.passed
    assert _transcript(capsys, tmp_path, {"grid_gap": _slot_gap_text()},
                       ("validate", "FILE"), ("validate", "FILE", "--json")) == (
        GOLDEN_CLI / "grid_gap.out").read_text()


@pytest.mark.parametrize("name, flags, code", [
    ("p4", (), 0),
    ("p4", ("--optimal",), 0),
    ("p4", ("--optimal", "--json"), 0),
    ("jcm_split", (), 0),
    ("jcm_split", ("--optimal",), 1),
    ("jcm_split", ("--optimal", "--json"), 1),
    ("p4_s5", (), 1),
    ("p4_s5", ("--optimal",), 1),
    ("p4_s5", ("--optimal", "--json"), 1),
])
def test_validate_golden_stdout(tmp_path, capsys, name, flags, code):
    f = tmp_path / f"{name}.dpda"
    f.write_text(GOLDEN_ARRAYS[name])
    expected = (GOLDEN_CLI / f"{name}{''.join(flags).replace('--', '.')}.out").read_text()
    assert run(capsys, "validate", str(f), *flags) == (code, expected, "")


@pytest.mark.parametrize("name, flags, code", [
    ("p4", ("--files", "4", "--blocks", "2", "--trials", "5", "--seed", "3"), 0),
    ("p4_s5", ("--files", "4", "--blocks", "2", "--trials", "2", "--seed", "3"), 1),
    ("p4_rerouted", ("--files", "4", "--blocks", "1", "--demand", "0,1,2,3;0,0,0,0"), 1),
    ("jcm_c4b", ("--files", "4", "--blocks", "1", "--demand", "0,1,2,3;0,0,0,0"), 1),
])
def test_simulate_golden_stdout(tmp_path, capsys, name, flags, code):
    f = tmp_path / f"{name}.dpda"
    f.write_text(GOLDEN_ARRAYS[name])
    expected = (GOLDEN_CLI / f"{name}.simulate.json.out").read_text()
    assert run(capsys, "simulate", str(f), *flags, "--json") == (code, expected, "")


def test_validate_malformed_file_is_input_error(tmp_path, capsys):
    f = tmp_path / "junk.dpda"
    f.write_text("not an array\n")
    code, _, err = run(capsys, "validate", str(f))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text, message", [
    ("DPDA K=2 L'=1 F=2 Z=1 S=1\n0^0 *\n*\n", "row 1: expected 2 columns, got 1"),
    ("DPDA K=2 L'=1 F=2 Z=1 S=1\n0^0 *\n", "expected 2 rows (L'*F), got 1"),
    ("DPDA K=1 L'=0 F=1 Z=1 S=0\n*\n", "K, L' and F must all be >= 1"),
    # every token is read before the shape is checked
    ("DPDA K=2 L'=1 F=2 Z=1 S=1\n0^0\n* x\n", "row 1, column 1: bad token 'x'"),
], ids=["short-row", "row-count", "no-band", "token-before-shape"])
def test_validate_shape_fault_is_input_error(tmp_path, capsys, text, message):
    f = tmp_path / "bad.dpda"
    f.write_text(text)
    assert run(capsys, "validate", str(f)) == (2, "", f"error: {message}\n")


def test_validate_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.dpda")
    assert code == 2


def test_validate_reads_stdin(tmp_path, monkeypatch, capsys):
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    expected = run(capsys, "validate", str(f), "--optimal")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(P4_TEXT.encode())))
    assert run(capsys, "validate", "-", "--optimal") == expected


def test_non_utf8_input_is_one_input_error(tmp_path, monkeypatch, capsys):
    # a file and stdin are both read as bytes, so parse_dpda alone decodes them
    data = b"DPDA K=1 L'=1 F=1 Z=1 S=0\n*\xff\n"
    f = tmp_path / "bad.dpda"
    f.write_bytes(data)
    expected = (2, "", "error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                       "in position 27: invalid start byte\n")
    assert run(capsys, "validate", str(f)) == expected
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(capsys, "validate", "-") == expected


def test_more_slots_than_cells_is_an_input_error(tmp_path, capsys):
    # a slot id per declared slot would cost memory in S before any check;
    # an S above the L'*F*K cells is refused as the array is built
    f = tmp_path / "wide.dpda"
    f.write_text("DPDA K=1 L'=1 F=1 Z=1 S=4000000\n*\n")
    expected = (2, "", "error: S=4000000 exceeds the 1 cells (L'*F*K)\n")
    for argv in (("validate",), ("bounds", "--from"), ("compare",)):
        assert run(capsys, *argv, str(f)) == expected, argv


def test_bounds_case(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "6", "--case", "2/K", "--json")
    assert code == 0
    j = json.loads(out)
    assert j["f_bound"] == 9
    assert j["rate_bound"] == "2"


@pytest.mark.parametrize("case", ["1/K", "2/K", "(K-2)/K", "(K-1)/K"])
def test_bounds_case_rejects_zero_users(capsys, case):
    code, out, err = run(capsys, "bounds", "--k", "0", "--case", case)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_bounds_from_single_user_array(tmp_path, capsys):
    f = tmp_path / "k1.dpda"
    f.write_text("DPDA K=1 L'=1 F=1 Z=1 S=0\n*\n")
    code, out, err = run(capsys, "bounds", "--from", str(f), "--json")
    assert (code, err) == (0, "")
    j = json.loads(out)
    assert j["case"] is None and j["f_bound"] == "not covered"


def test_bounds_case_choices_are_the_library_cases():
    assert cli._MEMORY_CASES == MEMORY_CASES


def test_bounds_from_file(tmp_path, capsys):
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, _ = run(capsys, "bounds", "--from", str(f), "--json")
    assert code == 0
    j = json.loads(out)
    assert j["meets_rate_bound"] is True and j["meets_f_bound"] is True


def test_bounds_text_table(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "6", "--case", "2/K")
    assert code == 0
    assert "f_bound" in out and "9" in out


@pytest.mark.parametrize("flags", [(), ("--k", "6"), ("--case", "2/K")],
                         ids=["neither", "k_only", "case_only"])
def test_bounds_without_case_or_array_is_usage_error(capsys, flags):
    code, out, err = run(capsys, "bounds", *flags)
    assert (code, out, err) == (2, "", "error: provide --k and --case, or --from FILE\n")


def test_simulate_demand(tmp_path, capsys):
    f = tmp_path / "q.dpda"
    f.write_text(Q_LIFTED_P4_TEXT)
    code, out, _ = run(capsys, "simulate", str(f), "--files", "4", "--blocks", "3",
                       "--demand", "0,1,2,3;0,1,0,1", "--json")
    assert code == 0
    j = json.loads(out)
    assert j["success"] is True
    assert j["packets_sent"] == 8
    assert j["rate"] == "1"


def test_simulate_trials(tmp_path, capsys):
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, _ = run(capsys, "simulate", str(f), "--files", "4", "--blocks", "2",
                       "--trials", "20", "--seed", "5", "--json")
    assert code == 0
    assert json.loads(out)["trials"] == 20


def test_simulate_bad_demand_literal(tmp_path, capsys):
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, _, err = run(capsys, "simulate", str(f), "--files", "4", "--blocks", "2",
                       "--demand", "0,1;0,1")
    assert code == 2


@pytest.mark.parametrize("demand", ["0,1", "a;b", "0,1;0,1;0"])
def test_simulate_unparsable_demand_literal(tmp_path, capsys, demand):
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, err = run(capsys, "simulate", str(f), "--files", "4", "--blocks", "2",
                         "--demand", demand)
    assert (code, out) == (2, "")
    assert err.startswith("error: demand literal must be 'd0,d1,...;b0,b1,...': ")


@pytest.mark.parametrize("text, blocks, demand, message", [
    (P4_TEXT, "1", "9,0,0,0;0,0,0,0", "user 0: file 9 out of range [0,2)"),
    (P4_TEXT, "1", "0,0,0,0;0,0,1,0", "user 2: start block 1 out of range [0,0]"),
    (P4_TEXT, "1", "0,1;0,1", "demand is for 2 users, array has 4"),
    (Q_LIFTED_P4_TEXT, "1", "9,0,0,0;0,0,0,0", "need L >= L', got L=1, L'=2"),
], ids=["file", "start_block", "user_count", "blocks_below_lp"])
def test_simulate_malformed_demand_is_an_input_error(tmp_path, capsys, text, blocks, demand,
                                                      message):
    # a demand the array and library cannot serve is rejected before any run,
    # by the check simulate itself applies; exit 1 stays a failed run
    f = tmp_path / "p.dpda"
    f.write_text(text)
    code, out, err = run(capsys, "simulate", str(f), "--files", "2", "--blocks", blocks,
                         "--demand", demand)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("sizes", [("--files", "0"), ("--files", "4", "--packet-size", "0")],
                         ids=["files", "packet_size"])
def test_simulate_nonpositive_size_is_an_input_error(tmp_path, capsys, sizes):
    # simulate checks N, L and the packet size itself, before any run
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, err = run(capsys, "simulate", str(f), *sizes, "--blocks", "2", "--trials", "1")
    assert (code, out, err) == (2, "", "error: N, L, F and packet_size must all be >= 1\n")


def test_simulate_usage_error_before_reading_the_array(capsys):
    # the --demand/--trials pair is checked first, so a missing file does not
    # hide the usage error
    code, out, err = run(capsys, "simulate", "/nonexistent/x.dpda", "--files", "4",
                         "--blocks", "2")
    assert (code, out) == (2, "")
    assert err == "error: provide exactly one of --demand or --trials\n"


def test_search_finds_minimum(capsys):
    code, out, _ = run(capsys, "search", "--k", "4", "--f", "4", "--z", "2",
                       "--max-s", "8", "--json")
    assert code == 0
    j = json.loads(out)
    assert j["minimal_s"] == 4
    assert j["witness"].startswith("DPDA K=4 L'=1 F=4 Z=2 S=4")


def test_search_infeasible_exit_code(capsys):
    code, out, _ = run(capsys, "search", "--k", "3", "--f", "3", "--z", "1",
                       "--max-s", "5")
    assert code == 1
    assert "no array" in out


@pytest.mark.parametrize("flags, message", [
    (("--z", "3"), "error: require 1 <= Z <= F, got Z=3, F=2\n"),
    (("--z", "1", "--max-s", "-1"), "error: s_max must be nonnegative, got -1\n"),
])
def test_search_malformed_input_is_usage_error(capsys, flags, message):
    assert run(capsys, "search", "--k", "2", "--f", "2", *flags) == (2, "", message)


@pytest.mark.parametrize("name, cases, flags", [
    ("search.json", instances(16), ("--json",)),  # 69 instances
    ("search", [(4, 4, 2), (2, 5, 2)], ()),  # feasible, and infeasible
    ("search24.json", [c for c in instances(24) if c not in instances(16)],
     ("--json",)),  # the 99 instances with 17 <= K*F <= 24
])
def test_search_golden_stdout(capsys, name, cases, flags):
    blocks = []
    for k, f, z in cases:
        argv = ("search", "--k", str(k), "--f", str(f), "--z", str(z), *flags)
        code, out, err = run(capsys, *argv)
        assert err == "", argv
        blocks.append(f"$ {' '.join(argv)}\n{out}[exit {code}]\n")
    assert "".join(blocks) == (GOLDEN_CLI / f"{name}.out").read_text()


def test_search_guard_exit_code(capsys):
    code, _, err = run(capsys, "search", "--k", "6", "--f", "9", "--z", "3")
    assert code == 2
    assert "guard" in err


def test_compare(tmp_path, capsys):
    f = tmp_path / "g3.dpda"
    f.write_text(serialize_dpda(construct_grid(3)))
    code, out, _ = run(capsys, "compare", str(f), "--json")
    assert code == 0
    j = json.loads(out)
    assert (j["f_ours"], j["f_jcm"], j["ratio"]) == (9, 30, "3/10")


# fails C3 first: slot 1's sender, user 0, holds no star in rows 0 and 2
_C3_FAULT_TEXT = "DPDA K=4 L'=1 F=4 Z=2 S=4\n2^2 * * 1^0\n* 2^2 * 0^0\n3^3 * 1^0 *\n* 3^3 0^0 *\n"


@pytest.mark.parametrize("argv", [("bounds", "--from"), ("compare",)],
                         ids=["bounds", "compare"])
def test_bounds_and_compare_reject_an_invalid_array(tmp_path, capsys, argv):
    f = tmp_path / "c3.dpda"
    f.write_text(_C3_FAULT_TEXT)
    code, out, err = run(capsys, *argv, str(f))
    assert (code, out, err) == (2, "", "error: array is not a valid DPDA (fails c3)\n")


def test_compare_rejects_an_all_star_array(tmp_path, capsys):
    # valid, but Z/F = 1 gives t = K, where the baseline has no instance
    f = tmp_path / "stars.dpda"
    f.write_text("DPDA K=2 L'=1 F=1 Z=1 S=0\n* *\n")
    assert run(capsys, "validate", str(f))[0] == 0
    code, out, err = run(capsys, "compare", str(f))
    assert (code, out, err) == (2, "", "error: t must satisfy 1 <= t < K, got t=2, K=2\n")


def test_compare_rejects_a_memory_ratio_outside_the_baseline(tmp_path, capsys):
    f = tmp_path / "f3.dpda"
    f.write_text("DPDA K=2 L'=1 F=3 Z=2 S=2\n0^1 *\n* 1^0\n* *\n")
    code, out, err = run(capsys, "compare", str(f))
    assert (code, out) == (2, "")
    assert err == "error: memory ratio Z/F = 2/3 is not of the form t/K for K = 2\n"


@pytest.mark.parametrize("exc", [TypeError("bad\noperand"), RecursionError(), MemoryError()])
def test_unexpected_exception_is_internal_error(monkeypatch, tmp_path, capsys, exc):
    def handler(args):
        raise exc

    monkeypatch.setattr(dpda.bounds, "_cmd_compare", handler)  # the handler's home
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, err = run(capsys, "compare", str(f))
    assert (code, out) == (3, "")
    assert err == f"internal error: {exc!r}\n"


def test_failed_assertion_is_internal_error(monkeypatch, tmp_path, capsys):
    def handler(args):
        raise AssertionError("rate bound violated")

    monkeypatch.setattr(dpda.validation, "_cmd_validate", handler)  # the handler's home
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, err = run(capsys, "validate", str(f))
    assert (code, out, err) == (3, "", "internal assertion failed: rate bound violated\n")


def test_broken_recovery_identity_is_internal_error(monkeypatch, tmp_path, capsys):
    # no array can make a decoding user recover other bytes, so a plan that
    # leaves a side cell in a slot's payload is a bug (exit 3), never a
    # failed run (exit 1)
    user_plan = dpda.sim._user_plan

    def dropping(p, k):
        clashes, fault, coded = user_plan(p, k)
        if k == 1:
            (cell, slot, sides), *rest = coded
            coded = [(cell, slot, sides[1:]), *rest]
        return clashes, fault, coded

    monkeypatch.setattr(dpda.sim, "_user_plan", dropping)
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, err = run(capsys, "simulate", str(f), "--files", "4", "--blocks", "2",
                         "--trials", "20", "--seed", "5")
    assert (code, out) == (3, "")
    assert err == ("internal assertion failed: user 1 recovered other bytes than it "
                   "requested in trials 0..19\n")


def test_flipped_payload_bit_is_internal_error(monkeypatch, tmp_path, capsys):
    # a flipped payload bit breaks the identity for the lowest user that
    # decodes from that slot: P4's slot 0 mixes users 2 and 3's cells
    payloads = dpda.sim._payloads

    def flipping(mix, ints):
        out = payloads(mix, ints)
        out[0] ^= 1 << 13
        return out

    monkeypatch.setattr(dpda.sim, "_payloads", flipping)
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    code, out, err = run(capsys, "simulate", str(f), "--files", "4", "--blocks", "2",
                         "--trials", "20", "--seed", "5")
    assert (code, out) == (3, "")
    assert err == ("internal assertion failed: user 2 recovered other bytes than it "
                   "requested in trials 0..19\n")


def _imports() -> list[tuple[str, str]]:
    """(module stem, imported name) for every import in ``src/dpda``; a
    ``from`` import gives its module and each name under it."""
    found = []
    for path in sorted((SRC / "dpda").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "dpda" if node.level else ""  # every module is in the package
                base = ".".join(filter(None, [base, node.module]))
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(path.stem, name) for name in names]
    return found


def test_no_library_module_imports_the_cli_or_the_json_writer():
    # main is the one writer: the handlers return their output, so only
    # dpda.cli needs dpda.jsonout, and nothing reaches back into dpda.cli
    assert [(stem, name) for stem, name in _imports()
            if stem != "cli" and name in ("dpda.cli", "dpda.jsonout")] == []


def test_no_module_loads_json():
    # --json output is written by dpda.jsonout and nothing reads JSON, so
    # no module of the package imports json
    assert [(stem, name) for stem, name in _imports() if name.split(".")[0] == "json"] == []


def test_every_to_json_is_the_one_rule():
    # a record's JSON form comes from dpda.core._as_json: to_json is bound to
    # it, or calls it and adds only the record's one difference, so no
    # to_json lists its record's fields by hand
    found = {}
    for path in sorted((SRC / "dpda").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "to_json" for t in node.targets):
                    bound = isinstance(node.value, ast.Name) and node.value.id == "_as_json"
                    found[cls.name] = "bound" if bound else "other"
                elif isinstance(node, ast.FunctionDef) and node.name == "to_json":
                    calls = any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                                and call.func.id == "_as_json"
                                and [getattr(a, "id", None) for a in call.args] == ["self"]
                                for call in ast.walk(node))
                    found[cls.name] = "calls" if calls else "other"
    assert found == {
        "JcmParams": "bound", "JcmComparison": "bound", "SearchResult": "bound",
        "SimReport": "bound", "BoundsReport": "calls", "RateOptimality": "calls",
        "ValidationReport": "calls",
    }


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "even", "--q", "2"],
    ["construct", "--family", "even", "--q", "2", "--json", "--out", "{out}"],
    ["validate", "{path}", "--optimal"],
    ["validate", "{path}", "--json"],
    ["bounds", "--k", "6", "--case", "2/K", "--json"],
    ["bounds", "--from", "{path}"],
    ["compare", "{path}"],
    ["compare", "{path}", "--json"],
    ["simulate", "{path}", "--files", "4", "--blocks", "2", "--trials", "3"],
    ["simulate", "{path}", "--files", "4", "--blocks", "2", "--demand", "0,1,2,3;0,0,1,1",
     "--json"],
    ["search", "--k", "3", "--f", "3", "--z", "1"],
    ["search", "--k", "2", "--f", "3", "--z", "1", "--max-s", "4", "--json"],
], ids=lambda argv: "-".join(argv[:1] + [a[2:] for a in argv if a in ("--json", "--out")]))
def test_handler_returns_what_main_writes(tmp_path, capsys, argv):
    # a handler writes nothing, to stdout, stderr or --out, and returns
    # (text, code), or (document, code) under --json; main writes the text,
    # or jsonout.dumps of the document, to --out or else stdout
    f, out = tmp_path / "p4.dpda", tmp_path / "out.dpda"
    f.write_text(P4_TEXT)
    argv = [a.format(path=f, out=out) for a in argv]
    args = cli._fast_args(argv)
    module, _, name = args.func.partition(".")
    doc, code = getattr(importlib.import_module(f"dpda.{module}"), name)(args)
    assert capsys.readouterr() == ("", "") and not out.exists()
    assert type(doc) is (dict if "--json" in argv else str) and type(code) is int
    text = doc if isinstance(doc, str) else jsonout.dumps(doc)
    if "--out" in argv:
        assert run(capsys, *argv) == (code, "", "")
        assert out.read_text(encoding="utf-8") == text
    else:
        assert run(capsys, *argv) == (code, text, "")


def test_subcommand_runs_only_its_modules(tmp_path):
    # A library module that a subcommand does not call is never executed:
    # it stays an unloaded stub in sys.modules (see dpda/__init__.py).  The
    # JSON writer in dpda.jsonout runs only for `--json` runs, and the text
    # reader in dpda._read only for the verbs that read an array.
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    expected = {
        ("construct", "--family", "even", "--q", "2"): ["construct"],
        ("construct", "--family", "even", "--q", "2", "--json"): ["construct", "jsonout"],
        ("validate", str(f)): ["_read", "validation"],
        ("validate", str(f), "--optimal", "--json"): ["_read", "jsonout", "validation"],
        ("bounds", "--k", "6", "--case", "2/K"): ["bounds"],
        ("bounds", "--k", "6", "--case", "2/K", "--json"): ["bounds", "jsonout"],
        ("bounds", "--from", str(f)): ["_read", "bounds", "validation"],
        ("bounds", "--from", str(f), "--json"): ["_read", "bounds", "jsonout", "validation"],
        ("compare", str(f)): ["_read", "bounds", "validation"],
        ("compare", str(f), "--json"): ["_read", "bounds", "jsonout", "validation"],
        ("simulate", str(f), "--files", "4", "--blocks", "2", "--trials", "3", "--json"):
            ["_read", "jsonout", "sim"],
        ("search", "--k", "3", "--f", "3", "--z", "1"): ["search"],
        ("search", "--k", "3", "--f", "3", "--z", "1", "--json"): ["jsonout", "search"],
    }
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    ran = {}
    for argv in expected:
        script = (
            "import sys, types\n"
            "from dpda.cli import main\n"
            f"code = main({list(argv)!r})\n"
            "print(code, sorted(n[5:] for n, m in sys.modules.items()"
            " if n.startswith('dpda.') and type(m) is types.ModuleType))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        ran[argv] = proc.stdout.splitlines()[-1]
    assert ran == {argv: f"0 {sorted(['cli', 'core'] + mods)}"
                   for argv, mods in expected.items()}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["simulate", "--help"], 0),
    (["search", "--k", "3"], 2),  # a usage error
])
def test_help_and_usage_errors_run_no_library_module(argv, code):
    # _VERBS names each handler, which main resolves only once an argv is
    # read, so building the parser for help or an error executes no library
    # module, not even dpda.core
    script = (
        "import sys, types\n"
        "from dpda.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, sorted(n[5:] for n, m in sys.modules.items()"
        " if n.startswith('dpda.') and type(m) is types.ModuleType))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == f"{code} ['cli']"


# One argv per verb; ``{path}`` stands for a file holding P4.
VERB_ARGVS = [
    ["construct", "--family", "even", "--q", "2"],
    ["validate", "{path}", "--optimal"],
    ["bounds", "--from", "{path}"],
    ["compare", "{path}"],
    ["simulate", "{path}", "--files", "4", "--blocks", "2", "--trials", "3"],
    ["search", "--k", "3", "--f", "3", "--z", "1"],
]


@pytest.mark.parametrize("argv", VERB_ARGVS, ids=lambda argv: argv[0])
def test_subcommand_skips_heavy_stdlib_imports(tmp_path, argv):
    # The records need no `dataclasses` (which pulls in inspect, ast and dis),
    # `--json` output is written without `json`, which no module loads, and
    # `argparse` (with gettext and locale) loads only for help and usage
    # errors.  The argv runs without --json, then with it.
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    heavy = {"dataclasses", "inspect", "ast", "dis", "argparse", "gettext", "locale", "json"}
    argv = [a.format(path=f) for a in argv]
    script = (
        "import sys\n"
        "from dpda.cli import main\n"
        f"codes = main({argv!r}), main({argv + ['--json']!r})\n"
        f"print(*codes, sorted(set(sys.modules).intersection({sorted(heavy)!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 0 []"


@pytest.mark.parametrize("argv", VERB_ARGVS, ids=lambda argv: argv[0])
def test_subcommand_imports_no_typing_site_free(tmp_path, argv):
    # Annotations are never evaluated (`from __future__ import annotations`),
    # so their names come from collections.abc, and a run without `site`,
    # which may load typing itself, loads no typing.  The argv runs without
    # --json, then with it.
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    argv = [a.format(path=f) for a in argv]
    script = (
        "import sys\n"
        "from dpda.cli import main\n"
        f"codes = main({argv!r}), main({argv + ['--json']!r})\n"
        "print(*codes, 'typing' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 0 False"


@pytest.mark.parametrize("argv", VERB_ARGVS, ids=lambda argv: argv[0])
def test_in_process_main_leaves_the_heap_unfrozen(tmp_path, capsys, argv):
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    frozen = gc.get_freeze_count()
    assert run(capsys, *[a.format(path=f) for a in argv])[0] == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv", VERB_ARGVS, ids=lambda argv: argv[0])
def test_process_entry_freezes_the_heap_and_prints_the_same(tmp_path, capsys, argv):
    # main() reads sys.argv and freezes the start-up heap, so the exit
    # collections skip it; what it prints is what main(argv) prints
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    argv = [a.format(path=f) for a in argv]
    script = ("import gc, sys; from dpda.cli import main; code = main(); "
              "print(gc.get_freeze_count() > 0, file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True)
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err + "True\n")


@pytest.mark.parametrize("script, args, golden", [
    ("compare_families", (), "compare_families.out"),
    ("certify_floors", ("--max-cells", "12"), "certify_floors.out"),
    ("certify_floors", ("--max-cells", "36"), "certify_floors--max-cells-36.out"),
], ids=["compare_families-args0", "certify_floors-args1", "certify_floors-args2"])
def test_scripts_golden_stdout(script, args, golden):
    # both validate every array they build or find, through the library;
    # certify_floors' minima up to 36 cells are the search oracle's, each
    # found with cells_limit passed explicitly
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, str(SRC.parent / "scripts" / f"{script}.py"), *args],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, (GOLDEN_CLI / golden).read_text())


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block of README's section ``heading``."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("```", start)]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # each `dpda ...` example exits 0, in order: one saves the array that
    # the later ones read
    monkeypatch.chdir(tmp_path)
    commands = [line for line in _readme_block("Command line", "sh").splitlines()
                if line.startswith("dpda ")]
    assert len(commands) == 9
    for line in commands:
        assert run(capsys, *shlex.split(line)[1:])[0] == 0, line


def test_readme_library_example_runs():
    exec(compile(_readme_block("Library", "python"), "README.md", "exec"), {})


def test_startup_profile_runs(tmp_path):
    # its timings vary from run to run, so only the shape is checked; search
    # reads no array, and only --json compiles the JSON writer; a leading -S
    # profiles site-free interpreters, whose module list shows the standard
    # library a run loads, and typing is not in it; simulate renders its two
    # rationals from integers, so fractions and decimal are not in it either
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    search = ["search", "--k", "2", "--f", "2", "--z", "1"]
    simulate = ["simulate", str(f), "--files", "4", "--blocks", "2", "--trials", "3", "--json"]
    for lead, argv, modules in [
        ([], search, ["dpda", "dpda.cli", "dpda.core", "dpda.search"]),
        ([], [*search, "--json"], ["dpda", "dpda.cli", "dpda.core", "dpda.jsonout", "dpda.search"]),
        (["-S"], [*search, "--json"],
         ["dpda", "dpda.cli", "dpda.core", "dpda.jsonout", "dpda.search"]),
        ([], simulate, ["dpda", "dpda._read", "dpda.cli", "dpda.core", "dpda.jsonout", "dpda.sim"]),
        (["-S"], simulate,
         ["dpda", "dpda._read", "dpda.cli", "dpda.core", "dpda.jsonout", "dpda.sim"]),
    ]:
        proc = subprocess.run([sys.executable, str(SRC.parent / "scripts" / "startup_profile.py"),
                               *lead, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"$ dpda {' '.join(argv)}  [exit 0]\n"
                                      f"modules loaded beyond `{' '.join(['python3', *lead])} "
                                      "-c pass`")
        assert "dpda.cli\n" in proc.stdout and "argparse" not in proc.stdout
        if lead:
            assert " collections\n" in proc.stdout and " typing\n" not in proc.stdout
        if argv is simulate:
            assert " fractions\n" not in proc.stdout and " decimal\n" not in proc.stdout
        lines = proc.stdout.splitlines()
        header = lines.index("compile_ms  lines  nodes  uncalled  module")
        # one row per dpda module the run compiled, then their totals, then
        # the heap at exit
        rows = [line.split() for line in lines[header + 1:-1]]
        assert [row[4:] for row in rows] == [[name] for name in modules] + [
            ["total", "over", str(len(modules)), "modules"]]
        # lines, nodes and the nodes of functions never entered add up, and
        # search never enters the other verbs' code or the readers; simulate
        # enters every function of the text reader, and no other module whole
        counts = [[int(x) for x in row[1:4]] for row in rows]
        assert [sum(column) for column in zip(*counts[:-1])] == counts[-1]
        whole = ["dpda._read"] if argv is simulate else []
        assert all((uncalled == 0) == (row[4] in whole) and uncalled < nodes
                   for row, (_lines, nodes, uncalled) in zip(rows, counts))
        # main froze the start-up heap, which the exit collections skip
        tracked, frozen = lines[-1].removeprefix("at exit: ").split(" tracked objects, ")
        assert int(tracked) >= 0 and int(frozen.removesuffix(" frozen at entry")) > 0


@pytest.mark.parametrize("lead", [[], ["-S"]], ids=["site", "no-site"])
def test_simulate_loads_no_fractions(tmp_path, lead):
    # the rate and the cache size are rendered from integers, so no
    # simulate run, with or without site, loads fractions or what it imports
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    script = (
        "import sys\n"
        "from dpda.cli import main\n"
        "code = main()\n"
        "print(code, [m for m in ('fractions', 'decimal', '_decimal', 'numbers')"
        " if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for runs in (["--trials", "3"], ["--demand", "0,1,2,3;0,0,1,1"]):
        for json_flag in ([], ["--json"]):
            argv = ["simulate", str(f), "--files", "4", "--blocks", "2", *runs, *json_flag]
            proc = subprocess.run([sys.executable, *lead, "-c", script, *argv], env=env,
                                  capture_output=True, text=True, check=True)
            assert proc.stdout.splitlines()[-1] == "0 []", (argv, proc.stdout)


def test_each_name_has_one_home():
    # Every public name is bound in the module _EXPORTS names for it, and no
    # submodule answers for a name through a module __getattr__, so the
    # tracer's lookups by module (bench/tracing.py's LAYERS) find plain
    # attributes there.
    modules = [importlib.import_module(f"dpda.{info.name}")
               for info in pkgutil.iter_modules(dpda.__path__)]
    for module, names in dpda._EXPORTS.items():
        own = vars(getattr(dpda, module))
        assert [n for n in names if n not in own or own[n] is not getattr(dpda, n)] == []
    assert [m.__name__ for m in modules if "__getattr__" in vars(m)] == []
    layers = runpy.run_path(str(SRC.parent / "bench" / "tracing.py"))["LAYERS"]
    defined = {name for m in modules for name in vars(m)}
    assert [f"{module}.{name}" for module, names in layers.values() for name in names
            if name in defined and name not in vars(sys.modules[module])] == []
    with pytest.raises(AttributeError, match="no attribute 'parse'"):
        dpda.core.parse
    with pytest.raises(AttributeError, match="no attribute 'delivery'"):
        dpda.sim.delivery


def test_readers_load_on_first_use_under_every_name():
    # The text reader's entry and the JSON mirror writer live in dpda.core,
    # which importing the package does not execute; reading executes
    # dpda.core and the reader's code in dpda._read, and never loads json.
    # dpda.core is the one public module path: dpda.read and dpda.mirror are
    # gone, and nothing reads the mirror back.
    # slot_cells is gone too: each array carries its own slot index.
    script = (
        "import sys, types\n"
        "import dpda\n"
        "ran = lambda: [n for n in sorted(sys.modules) if n.startswith('dpda.')\n"
        "               and type(sys.modules[n]) is types.ModuleType]\n"
        "print(ran())\n"
        f"p = dpda.parse_dpda({P4_TEXT!r})\n"
        "print(ran(), 'json' in sys.modules)\n"
        "dpda.dpda_to_json(p)\n"
        "print(ran(), 'json' in sys.modules)\n"
        "print(dpda.parse_dpda is dpda.core.parse_dpda,\n"
        "      dpda.dpda_to_json is dpda.core.dpda_to_json,\n"
        "      hasattr(dpda, 'dpda_from_json'), hasattr(dpda.core, 'dpda_from_json'),\n"
        "      hasattr(dpda, 'slot_cells'), hasattr(dpda.core, 'slot_cells'),\n"
        "      'slot_cells' in dpda.__all__ + dpda.core.__all__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == ("[]\n['dpda._read', 'dpda.core'] False\n"
                           "['dpda._read', 'dpda.core'] False\n"
                           "True True False False False False False\n")
    for gone in ("dpda.read", "dpda.mirror"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(gone)


def test_steps_load_on_first_use_under_every_name():
    # simulate is the protocol's one path: running dpda.sim executes neither
    # the CLI nor any other module, dpda.steps is gone, and so are the
    # one-demand steps and the materialised library and caches, which only
    # the tests' reference keeps.
    script = (
        "import sys, types\n"
        "import dpda.sim\n"
        "dpda.sim.simulate\n"
        "print([n for n in ('dpda.sim', 'dpda.cli')\n"
        "       if type(sys.modules.get(n)) is types.ModuleType])\n"
        "import dpda\n"
        "print([n for n in ('deliver', 'decode', 'Signal', 'SimulationError',"
        " 'user_cache_bytes', 'Library', 'make_library', 'Caches', 'place')\n"
        "       if hasattr(dpda, n) or hasattr(dpda.sim, n) or n in dpda.__all__])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "['dpda.sim']\n[]\n"
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("dpda.steps")


def test_every_module_all_lists_its_own_names():
    # each submodule's __all__ names only what it defines, and every name
    # the package takes from a submodule is in that submodule's __all__
    for info in pkgutil.iter_modules(dpda.__path__):
        sub = importlib.import_module(f"dpda.{info.name}")
        assert [n for n in getattr(sub, "__all__", ()) if not hasattr(sub, n)] == [], sub
    for module, names in dpda._EXPORTS.items():
        assert [n for n in names if n not in vars(dpda)[module].__all__] == [], module


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from dpda import *", namespace)
    assert [name for name in dpda.__all__ if name not in namespace] == []
    assert namespace["simulate"] is dpda.sim.simulate


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


VERBS = ("construct", "validate", "bounds", "simulate", "search", "compare")

# argv of the usage errors pinned in usage.out: no verb, an unknown verb, a
# missing required option, a bad int, an invalid choice of each kind, and an
# unknown option.
USAGE_ERRORS = [
    (),
    ("frobnicate",),
    ("search", "--k", "3", "--f", "3"),
    ("search", "--k", "x", "--f", "3", "--z", "1"),
    ("construct", "--family", "triangle", "--q", "2"),
    ("bounds", "--k", "4", "--case", "3/K"),
    ("compare", "p4.dpda", "--frobnicate"),
]


def _exit_transcript(monkeypatch, capsys, argvs, stream: str) -> str:
    """One block per argv that exits through SystemExit (argparse's help and
    usage errors): the argv, the text on ``stream`` and the exit code, at a
    terminal width of 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    blocks = []
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        shown, other = (out.out, out.err) if stream == "out" else (out.err, out.out)
        assert other == "", argv
        blocks.append(f"$ {' '.join(('dpda',) + argv)}\n{shown}[exit {exc.value.code}]\n")
    return "".join(blocks)


def test_help_golden_stdout(monkeypatch, capsys):
    argvs = [("--help",)] + [(verb, "--help") for verb in VERBS]
    assert _exit_transcript(monkeypatch, capsys, argvs, "out") == (
        GOLDEN_CLI / "help.out").read_text()


def test_usage_errors_golden_stderr(monkeypatch, capsys):
    assert _exit_transcript(monkeypatch, capsys, USAGE_ERRORS, "err") == (
        GOLDEN_CLI / "usage.out").read_text()


def _argparse_vars(parser, argv: list[str]) -> dict | None:
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def test_fast_path_reads_every_benchmark_argv(monkeypatch):
    # every op, and every set-up construct, of the three decks at seeds 1-5
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    parser = cli._parser()
    count = 0
    for make_deck in workloads.DECKS.values():
        for seed in range(1, 6):
            deck = make_deck(seed)
            argvs = [op.argv for group in deck.groups for op in group]
            argvs += [args + ["--out", name] for name, args in deck.files.items()]
            for argv in argvs:
                fast = cli._fast_args(argv)
                assert fast is not None, argv
                assert vars(fast) == _argparse_vars(parser, argv), argv
            count += len(argvs)
    assert count > 1000


def test_benchmark_decks_print_the_golden_output(tmp_path, monkeypatch, capsys):
    # Every op of the three decks at seed 1, set up as bench/run.py's setup
    # does and run in-process: each passes the benchmark's own check and
    # prints nothing on stderr, and decks.sha256 holds one line per op, the
    # sha256 of its output, its workload, index in deck order, exit code and
    # argv.  The output is stdout, or for an op that writes --out (and prints
    # nothing) the file it wrote.
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    seed, lines = 1, []
    for workload, make_deck in workloads.DECKS.items():
        deck = make_deck(seed)
        workdir = tmp_path / workload
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        for name, args in deck.files.items():
            assert run(capsys, *args, "--out", name) == (0, "", ""), args
        for name, (source, condition) in deck.mutations.items():
            text = (workdir / source).read_text(encoding="utf-8")
            rng = random.Random(f"mutate/{seed}/{name}")
            (workdir / name).write_text(workloads.mutate(text, condition, rng), encoding="utf-8")
        for i, op in enumerate(op for group in deck.groups for op in group):
            code, out, err = run(capsys, *op.argv)
            assert err == "" and workloads.check(op, code, out, workdir) is None, op.argv
            if "--out" in op.argv:
                assert out == "", op.argv
                out = (workdir / op.argv[op.argv.index("--out") + 1]).read_text(encoding="utf-8")
            digest = hashlib.sha256(out.encode()).hexdigest()
            lines.append(f"{digest}  {workload} {i} {code} {' '.join(op.argv)}")
    assert lines == (GOLDEN_CLI / "decks.sha256").read_text().splitlines()


# Values that argparse reads differently from the plain grammar, or rejects.
_ODD_VALUES = ["-3", "+4", "\u0663", " 7", "1_0", "4.0", "x", "", "-", "--", "-h", "--json"]


def _random_argv(rng: random.Random) -> list[str]:
    """An argv built from the verbs' own tokens, often well formed, often not:
    abbreviated, ``--opt=value``, repeated or missing options, odd values,
    extra or missing positionals, help flags and ``--``."""
    verb = rng.choice(VERBS * 4 + ("", "frobnicate", "-h", "--help", "sim", "--"))
    grammar = cli._VERBS[verb][2] if verb in cli._VERBS else {}
    pieces: list[list[str]] = []
    for name, kw in grammar.items():
        # a required option or positional is mostly given once, others often not
        usual = kw.get("required") or name[0] != "-"
        for _ in range(rng.choice((0, 1, 1, 1, 1, 2) if usual else (0, 0, 1, 1, 2))):
            if name[0] != "-":
                pieces.append([rng.choice(["p4.dpda", "-", "", "validate", "x y"])])
                continue
            value = rng.choice(list(kw.get("choices", ["4", "0", "12", "p4.dpda"]))
                               + ["2", "5"] + rng.sample(_ODD_VALUES, 2))
            token = rng.choice([name] * 8 + [name[:rng.randrange(2, len(name) + 1)],
                                             name[1:], name + "=" + value])
            pieces.append([token] if "action" in kw or "=" in token else [token, value])
    pieces += [[rng.choice(["-h", "--help", "--", "--json", "--k", "-k", "4"])]
               for _ in range(rng.random() < 0.1)]
    rng.shuffle(pieces)
    return [verb] * (verb != "" or rng.random() < 0.5) + [t for piece in pieces for t in piece]


@pytest.mark.parametrize("argv", [
    ["search", "--k", "3", "--f", "3", "--z", "1", "-h"],
    ["search", "--k", "3", "--f", "3", "--z", "1", "--help"],
    ["search", "--k=3", "--f", "3", "--z", "1"],
    ["search", "--k", "3", "--f", "3", "--z", "1", "--max", "4"],
    ["search", "--k", "3", "--f", "3", "--z", "1", "--z", "2"],
    ["search", "--k", "-3", "--f", "3", "--z", "1"],
    ["search", "--k", "3", "--f", "3", "--z", "x"],
    ["search", "--k", "3", "--f", "3"],
    ["search", "--", "--k", "3", "--f", "3", "--z", "1"],
    ["search", "--k", "3", "--f", "3", "--z"],
    ["construct", "--family", "triangle", "--q", "2"],
    ["validate", "-"],
    ["validate", "a.dpda", "b.dpda"],
    ["compare"],
    ["sim", "p4.dpda", "--files", "4", "--blocks", "2", "--trials", "3"],
    [],
    ["--help"],
])
def test_fast_path_leaves_the_rest_to_argparse(argv):
    assert cli._fast_args(argv) is None


def test_fast_path_matches_argparse_on_random_argv(capsys):
    parser = cli._parser()
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(50_000):
        argv = _random_argv(rng)
        fast = cli._fast_args(argv)
        if fast is not None:
            accepted += 1
            assert vars(fast) == _argparse_vars(parser, argv), argv
    capsys.readouterr()
    assert accepted >= 4_000


def test_byte_identical_reruns(capsys):
    a = run(capsys, "construct", "--family", "odd", "--q", "2")
    b = run(capsys, "construct", "--family", "odd", "--q", "2")
    assert a == b


# JSON documents of the shapes the package's to_json methods return, over
# strings drawn from every code point (controls, DEL, quotes, backslashes,
# non-ASCII, astral characters and lone surrogates), huge negative ints,
# bools and None
_json_strings = st.text(st.characters(exclude_categories=())
                        | st.sampled_from('"\\\b\t\n\f\r\x00\x1f\x7f\xe9\ud800\udfff\U0001f600'))
_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(max_value=-2**64) | _json_strings,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_json_strings, inner)),
    max_leaves=20,
)


@settings(deadline=None)
@given(_json_docs)
def test_json_writer_matches_json_dumps(doc):
    assert jsonout.dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_json_writer_matches_json_dumps_on_every_record():
    # what every to_json and dpda_to_json returns, on the differential corpus
    docs = [bounds_for_case(k, case).to_json() for k in range(4, 10) for case in MEMORY_CASES]
    docs += [jcm_params(k, t).to_json() for k in range(2, 9) for t in range(1, k)]
    docs += [search_min_s(k, f, z, (f - z) * k).to_json() for k, f, z in instances(12)]
    for p in differential_corpus():
        report = validate(p)
        docs += [dpda_to_json(p), report.to_json()]
        if report.rate_optimality is not None:
            docs.append(report.rate_optimality.to_json())
        if report.valid:
            docs.append(bounds_for_array(p).to_json())
            if p.k * p.z % p.f == 0 and 0 < p.z < p.f:
                docs.append(compare_to_jcm(p).to_json())
        docs.append(simulate(p, 3, 3, 4, trials=2).to_json())  # 3 blocks: every L' <= 3
    for doc in docs:
        assert jsonout.dumps(doc) == json.dumps(doc, indent=2) + "\n"
    assert len(docs) > 10_000


@pytest.mark.parametrize("doc", [1.5, {1, 2}, {1: "a"}, {"a": [{("k",): None}]}, b"x"],
                         ids=["float", "set", "int key", "nested tuple key", "bytes"])
def test_json_writer_rejects_what_to_json_never_returns(doc):
    with pytest.raises(TypeError):
        jsonout.dumps(doc)
