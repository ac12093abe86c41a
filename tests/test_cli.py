"""CLI adapters: output equality with the library, exit codes, JSON."""

from __future__ import annotations

import json
import os
import random
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
# exit code.  `compare_families.out` and `certify_floors.out` hold the stdout
# of those scripts.  `help.out` and `usage.out` hold argparse's help text and
# usage errors: the argv, stdout or stderr, and the exit code.
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


def test_validate_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/x.dpda")
    assert code == 2


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


def test_subcommand_runs_only_its_modules(tmp_path):
    # A library module that a subcommand does not call is never executed:
    # it stays an unloaded stub in sys.modules (see dpda/__init__.py).  The
    # reader in dpda.read runs only for the verbs that read an array file,
    # the JSON mirror in dpda.mirror only for `construct --json`, and the
    # JSON writer in dpda.jsonout only for `--json` runs.
    f = tmp_path / "p4.dpda"
    f.write_text(P4_TEXT)
    expected = {
        ("construct", "--family", "even", "--q", "2"): ["construct"],
        ("construct", "--family", "even", "--q", "2", "--json"):
            ["construct", "jsonout", "mirror"],
        ("validate", str(f)): ["read", "validation"],
        ("validate", str(f), "--optimal", "--json"): ["jsonout", "read", "validation"],
        ("bounds", "--k", "6", "--case", "2/K"): ["bounds"],
        ("bounds", "--k", "6", "--case", "2/K", "--json"): ["bounds", "jsonout"],
        ("bounds", "--from", str(f)): ["bounds", "read", "validation"],
        ("bounds", "--from", str(f), "--json"): ["bounds", "jsonout", "read", "validation"],
        ("compare", str(f)): ["bounds", "read", "validation"],
        ("compare", str(f), "--json"): ["bounds", "jsonout", "read", "validation"],
        ("simulate", str(f), "--files", "4", "--blocks", "2", "--trials", "3", "--json"):
            ["jsonout", "read", "sim"],
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
    # read, so building the parser for help or an error executes no handler's
    # module
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
    assert proc.stdout.splitlines()[-1] == f"{code} ['cli', 'core']"


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "even", "--q", "2"],
    ["validate", "{path}", "--optimal"],
    ["bounds", "--from", "{path}"],
    ["compare", "{path}"],
    ["simulate", "{path}", "--files", "4", "--blocks", "2", "--trials", "3"],
    ["search", "--k", "3", "--f", "3", "--z", "1"],
], ids=lambda argv: argv[0])
def test_subcommand_skips_heavy_stdlib_imports(tmp_path, argv):
    # The records need no `dataclasses` (which pulls in inspect, ast and dis),
    # `--json` output is written without `json`, which loads only to read JSON
    # text, and `argparse` (with gettext and locale) loads only for help and
    # usage errors.  The argv runs without --json, then with it.
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


@pytest.mark.parametrize("script, args", [
    ("compare_families", ()),
    ("certify_floors", ("--max-cells", "12")),
])
def test_scripts_golden_stdout(script, args):
    # both validate every array they build or find, through the library
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, str(SRC.parent / "scripts" / f"{script}.py"), *args],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, (GOLDEN_CLI / f"{script}.out").read_text())


def test_startup_profile_runs():
    # its timings vary from run to run, so only the shape is checked; search
    # reads no array, and only --json compiles the JSON writer
    for flags, modules in [
        ([], ["dpda", "dpda.cli", "dpda.core", "dpda.search"]),
        (["--json"], ["dpda", "dpda.cli", "dpda.core", "dpda.jsonout", "dpda.search"]),
    ]:
        argv = ["search", "--k", "2", "--f", "2", "--z", "1", *flags]
        proc = subprocess.run([sys.executable, str(SRC.parent / "scripts" / "startup_profile.py"),
                               *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"$ dpda {' '.join(argv)}  [exit 0]\n")
        assert "dpda.cli\n" in proc.stdout and "argparse" not in proc.stdout
        lines = proc.stdout.splitlines()
        header = lines.index("compile_ms  lines  nodes  uncalled  module")
        # one row per dpda module the run compiled, then their totals
        rows = [line.split() for line in lines[header + 1:]]
        assert [row[4:] for row in rows] == [[name] for name in modules] + [
            ["total", "over", str(len(modules)), "modules"]]
        # lines, nodes and the nodes of functions never entered add up, and
        # search never enters the other verbs' code or the readers
        counts = [[int(x) for x in row[1:4]] for row in rows]
        assert [sum(column) for column in zip(*counts[:-1])] == counts[-1]
        assert all(0 < uncalled < nodes for _lines, nodes, uncalled in counts)


def test_readers_load_on_first_use_under_every_name():
    # dpda.core answers for the text reader in dpda.read and for the JSON
    # mirror's writer and reader in dpda.mirror, and dpda.read for the
    # mirror's reader; importing dpda.core alone executes neither module, and
    # reading text does not execute dpda.mirror
    script = (
        "import sys, types\n"
        "import dpda.core\n"
        "ran = lambda: [n[5:] for n in ('dpda.read', 'dpda.mirror')\n"
        "               if type(sys.modules[n]) is types.ModuleType]\n"
        "print(ran())\n"
        "dpda.core.parse_dpda(\"DPDA K=1 L'=1 F=1 Z=1 S=0\\n*\\n\")\n"
        "print(ran())\n"
        "import dpda, dpda.read, dpda.mirror\n"
        "print(dpda.parse_dpda is dpda.core.parse_dpda is dpda.read.parse_dpda,\n"
        "      dpda.dpda_to_json is dpda.core.dpda_to_json is dpda.mirror.dpda_to_json,\n"
        "      dpda.dpda_from_json is dpda.core.dpda_from_json is dpda.read.dpda_from_json\n"
        "      is dpda.mirror.dpda_from_json)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n['read']\nTrue True True\n"
    with pytest.raises(AttributeError, match="no attribute 'parse'"):
        dpda.core.parse
    with pytest.raises(AttributeError, match="no attribute 'dpda_to_json'"):
        dpda.read.dpda_to_json


def test_steps_load_on_first_use_under_every_name():
    # dpda.sim answers for the one-demand steps that live in dpda.steps, and
    # running dpda.sim executes neither dpda.steps nor the CLI
    script = (
        "import sys, types\n"
        "import dpda.sim\n"
        "dpda.sim.simulate\n"
        "print([n for n in ('dpda.sim', 'dpda.steps', 'dpda.cli')\n"
        "       if type(sys.modules.get(n)) is types.ModuleType])\n"
        "import dpda, dpda.steps\n"
        "print([getattr(dpda, n) is getattr(dpda.sim, n) is getattr(dpda.steps, n)\n"
        "       for n in ('deliver', 'decode', 'Signal', 'SimulationError',"
        " 'user_cache_bytes')])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "['dpda.sim']\n[True, True, True, True, True]\n"
    with pytest.raises(AttributeError, match="no attribute 'delivery'"):
        dpda.sim.delivery


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
