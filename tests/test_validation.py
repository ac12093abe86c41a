"""Condition checks, witnesses, diagnostics and the counting invariants."""

from __future__ import annotations

import ast
import inspect
import random
import re
import tracemalloc
import typing
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpda import (
    Coded,
    ConditionCheck,
    Dpda,
    FormatError,
    STAR,
    lift,
    parse_dpda,
    RateOptimality,
    ValidationReport,
    validate,
)
from dpda.validation import CONDITION_ORDER

import validation_reference
from fuzz import (
    differential_corpus,
    random_symmetry_action,
    two_sender_copies,
    valid_corpus,
    with_entries,
)
from strategies import valid_dpdas
from golden import (
    GRID_Q3_TEXT,
    JCM_K4_T2_TEXT,
    MIN_F_K3_TEXT,
    P3_TEXT,
    P4_TEXT,
    P5_TEXT,
    P6_TEXT,
    Q_LIFTED_P4_TEXT,
    SINGLE_STAR_TEXT,
)

ALL_REFERENCE_TEXTS = [
    P3_TEXT,
    P4_TEXT,
    P5_TEXT,
    P6_TEXT,
    Q_LIFTED_P4_TEXT,
    GRID_Q3_TEXT,
    JCM_K4_T2_TEXT,
    MIN_F_K3_TEXT,
    SINGLE_STAR_TEXT,
]


@pytest.mark.parametrize("text", ALL_REFERENCE_TEXTS)
def test_reference_arrays_all_pass(text):
    report = validate(parse_dpda(text))
    assert report.valid
    assert report.first_failure is None


def test_c0_true_on_single_band_arrays():
    assert validate(parse_dpda(P4_TEXT)).c0.passed
    assert validate(parse_dpda(GRID_Q3_TEXT)).c0.passed


def test_c0_true_on_three_band_stack():
    assert validate(lift(parse_dpda(P4_TEXT), 3)).c0.passed


def test_c0_flipped_star_in_second_band_gives_witness():
    q = lift(parse_dpda(P4_TEXT), 2)
    # (5, 0) is a star; slot 0's sender is user 0, so Coded(0, 0) is
    # structurally consistent
    bad = with_entries(q, (5, 0, Coded(0, 0)))
    report = validate(bad)
    assert not report.c0.passed
    assert report.c0.witness == (5, 0)
    assert report.first_failure == "c0"


def test_c1_counts_stars_per_column():
    assert validate(parse_dpda(P4_TEXT)).c1.passed
    wrong_z = Dpda(k=4, lp=1, f=4, z=3, s=4, grid=parse_dpda(P4_TEXT).grid)
    check = validate(wrong_z).c1
    assert not check.passed
    assert check.witness == (0, 2)


def test_c2_missing_slot():
    assert validate(parse_dpda(Q_LIFTED_P4_TEXT)).c2.passed
    short = Dpda(k=4, lp=1, f=4, z=2, s=5, grid=parse_dpda(P4_TEXT).grid)
    check = validate(short).c2
    assert not check.passed
    assert check.witness == (4,)


def test_c3_requires_star_in_sender_column():
    p4 = parse_dpda(P4_TEXT)
    assert validate(p4).c3.passed
    # reroute slot 1 (both occurrences, keeping the sender unique) through
    # user 0, whose column is not starred in row 0
    bad = with_entries(p4, (0, 3, Coded(1, 0)), (2, 2, Coded(1, 0)))
    check = validate(bad).c3
    assert not check.passed
    assert check.witness == (0, 3, 1, 0)


def test_c3_vacuous_on_all_star():
    all_star = Dpda(k=3, lp=1, f=2, z=2, s=0,
                    grid=((STAR,) * 3, (STAR,) * 3))
    report = validate(all_star)
    assert report.c3.passed
    assert report.valid


def test_c4a_same_row_duplicate():
    p4 = parse_dpda(P4_TEXT)
    bad = with_entries(p4, (0, 0, Coded(1, 1)))
    report = validate(bad)
    assert not report.c4a.passed
    assert report.c4a.witness == (1, 0, 0, 0, 3)
    assert report.first_failure == "c4a"


def test_c4b_missing_crossing_star():
    # slot 0 at (0,0) and (1,1); crossing cell (0,1) coded, not a star
    grid = (
        (Coded(0, 2), Coded(1, 2), STAR),
        (Coded(1, 2), Coded(0, 2), STAR),
    )
    bad = Dpda(k=3, lp=1, f=2, z=1, s=2, grid=grid)
    report = validate(bad)
    assert not report.c4b.passed
    assert report.c4b.witness == (0, 0, 0, 1, 1)


def test_validate_diagnostics_counts():
    report = validate(parse_dpda(P4_TEXT))
    assert report.slot_occurrences == (2, 2, 2, 2)
    assert report.row_integer_counts == (2, 2, 2, 2)
    assert report.column_star_counts == (2, 2, 2, 2)
    assert report.broadcast_counts == (1, 1, 1, 1)


def test_conditions_are_declared_once():
    # ValidationReport's ConditionCheck fields are the one list of the
    # conditions: CONDITION_ORDER is read from them, and validate fills them
    # by position without naming any
    assert CONDITION_ORDER == ("c0", "c1", "c2", "c3", "c4a", "c4b", "unique_sender",
                               "slot_contiguity")
    hints = typing.get_type_hints(ValidationReport)
    checks = tuple(name for name in ValidationReport._fields if hints[name] is ConditionCheck)
    assert CONDITION_ORDER == checks == ValidationReport._fields[:len(checks)]
    tree = ast.parse(inspect.getsource(validate))
    assert [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in CONDITION_ORDER] == []


def test_report_json_stable_key_order():
    j = validate(parse_dpda(P3_TEXT)).to_json()
    assert list(j) == list(CONDITION_ORDER) + ["valid", "diagnostics"]
    assert j["valid"] is True
    assert j["diagnostics"]["broadcast_counts"] == [2, 2, 2]


def test_counting_identities_on_valid_arrays():
    for p in valid_corpus():
        report = validate(p)
        assert report.valid
        stars = sum(report.column_star_counts)
        coded = sum(report.row_integer_counts)
        assert stars == p.lp * p.z * p.k
        assert coded == p.lp * (p.f - p.z) * p.k
        assert sum(report.slot_occurrences) == coded
        # exact rate inequality, never violated on a valid array
        assert p.s * p.z >= p.lp * p.f * (p.f - p.z)


def test_random_grids_overwhelmingly_fail_with_named_condition():
    rng = random.Random(7)
    invalid = 0
    for _ in range(200):
        k, f, z, s = 4, 4, 2, 4
        senders = [rng.randrange(k) for _ in range(s)]
        grid = tuple(
            tuple(
                STAR if rng.random() < z / f else Coded(rng.randrange(s), 0)
                for _ in range(k)
            )
            for _ in range(f)
        )
        grid = tuple(
            tuple(e if e is STAR else Coded(e.slot, senders[e.slot]) for e in row)
            for row in grid
        )
        report = validate(Dpda(k=k, lp=1, f=f, z=z, s=s, grid=grid))
        if not report.valid:
            invalid += 1
            assert report.first_failure in CONDITION_ORDER
    assert invalid >= 195


def test_symmetry_invariance_seeded():
    rng = random.Random(123)
    for p in (parse_dpda(P4_TEXT), parse_dpda(P3_TEXT), parse_dpda(Q_LIFTED_P4_TEXT)):
        base = validate(p).valid
        for _ in range(100):
            q = random_symmetry_action(p, rng)
            assert validate(q).valid == base


@settings(deadline=None)
@given(valid_dpdas, st.integers(0, 2**32 - 1))
def test_symmetry_invariance_property(p, seed):
    q = random_symmetry_action(p, random.Random(seed))
    assert validate(q).valid


def test_symmetry_preserves_invalidity_verdict():
    rng = random.Random(5)
    p4 = parse_dpda(P4_TEXT)
    bad = with_entries(p4, (0, 3, Coded(1, 0)), (2, 2, Coded(1, 0)))
    for _ in range(50):
        assert not validate(random_symmetry_action(bad, rng)).valid


def test_rate_optimal_on_reference_arrays():
    for text in (P4_TEXT, GRID_Q3_TEXT, JCM_K4_T2_TEXT, MIN_F_K3_TEXT, P6_TEXT):
        opt = validate(parse_dpda(text)).rate_optimality
        assert opt.rate_is_minimal
        assert opt.c2prime and opt.c5


def test_rate_optimal_false_when_slot_split():
    # relabel one occurrence of slot 2 as a fresh slot 4: still valid, but
    # occurrence counts become uneven and the rate exceeds the floor
    p4 = parse_dpda(P4_TEXT)
    grid = [list(row) for row in p4.grid]
    grid[1][1] = Coded(4, 2)
    split = Dpda(k=4, lp=1, f=4, z=2, s=5,
                 grid=tuple(tuple(r) for r in grid))
    report = validate(split)
    assert report.valid
    opt = report.rate_optimality
    assert not opt.c2prime
    assert opt.c5
    assert not opt.rate_is_minimal
    assert report.broadcast_counts == (1, 1, 2, 1)


def test_rate_optimal_rejects_invalid_arrays():
    short = Dpda(k=4, lp=1, f=4, z=2, s=5, grid=parse_dpda(P4_TEXT).grid)
    report = validate(short)
    assert report.first_failure == "c2"
    assert report.rate_optimality is None


def test_rate_optimal_false_on_non_integer_target():
    # a valid (3,1,2,1,3) array: K*Z/F = 3/2 is not an integer, so both
    # minimal-rate verdicts must be false without rounding
    grid = (
        (STAR, STAR, Coded(0, 0)),
        (Coded(1, 2), Coded(2, 2), STAR),
    )
    p = Dpda(k=3, lp=1, f=2, z=1, s=3, grid=grid)
    report = validate(p)
    assert report.valid
    opt = report.rate_optimality
    assert not opt.c2prime and not opt.c5 and not opt.rate_is_minimal


def test_broadcast_counts_reference_values():
    assert validate(parse_dpda(P6_TEXT)).broadcast_counts == (1, 1, 1, 1, 1, 1)
    assert validate(parse_dpda(P3_TEXT)).broadcast_counts == (2, 2, 2)
    assert validate(parse_dpda(GRID_Q3_TEXT)).broadcast_counts == (3, 3, 3, 3, 3, 3)


def test_broadcast_counts_law_on_optimal_arrays():
    for p in valid_corpus():
        report = validate(p)
        if report.rate_optimality.rate_is_minimal:
            for m_k in report.broadcast_counts:
                assert m_k * p.k * p.z == p.lp * p.f * (p.f - p.z)


def test_equal_broadcast_counts_follow_from_optimality():
    for p in valid_corpus():
        report = validate(p)
        if report.rate_optimality.rate_is_minimal:
            assert len(set(report.broadcast_counts)) == 1


def test_report_fields_match_reference_scans():
    # unique_sender is pinned where it is enforced, by
    # test_dpda_refuses_every_two_sender_copy, so it always passes here
    failing = dict.fromkeys(("c0", "c2", "c3", "c4a", "c4b", "slot_contiguity"), 0)
    for p in differential_corpus():
        report = validate(p)
        expected = validation_reference.report_fields(p)
        assert {name: getattr(report, name) for name in expected} == expected, p
        for name in failing:
            failing[name] += not getattr(report, name).passed
        # every used id lies in [0, S), so a gap in them is a missing slot id
        if not report.slot_contiguity.passed:
            assert report.c2 == report.slot_contiguity, p
    # the flips and random arrays reach every witness path, not only the
    # passing verdicts
    assert min(failing.values()) > 100, failing


def test_dpda_refuses_every_two_sender_copy():
    # Dpda's sender check is the one place a second sender for a slot is
    # refused: it names the reference scan's witness, the row-major first
    # cell whose sender differs from its slot's first
    refused = 0
    for p in valid_corpus():
        for grid in two_sender_copies(p):
            witness = validation_reference.unique_sender(SimpleNamespace(grid=grid)).witness
            if witness is None:  # the handed-over cell was its slot's only one
                assert validate(Dpda(p.k, p.lp, p.f, p.z, p.s, grid)).unique_sender.passed
                continue
            r, c, s = witness
            with pytest.raises(FormatError,
                               match=f"^{re.escape(f'row {r}, column {c}: slot {s} has sender')}"):
                Dpda(p.k, p.lp, p.f, p.z, p.s, grid)
            refused += 1
    assert refused > 100, refused


def test_slot_index_matches_reference_scan():
    # every id in [0, S) is indexed, an id that never occurs by an empty list
    for p in differential_corpus():
        cells = validation_reference.slot_cells(p)
        assert p._cells == [cells.get(s, []) for s in range(p.s)], p


def test_validate_memory_is_linear_in_k():
    # one row of K stars: the walk XORs a column's bit out of its row's mask
    # where it uses it, so no table of K masks of K bits is built (27.9 MB
    # at this K)
    k = 20_000
    p = Dpda(k=k, lp=1, f=1, z=1, s=0, grid=[[None] * k])
    tracemalloc.start()
    try:
        report = validate(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak
    expected = validation_reference.report_fields(p)
    assert {name: getattr(report, name) for name in expected} == expected
    assert report.rate_optimality == RateOptimality(True, True)
