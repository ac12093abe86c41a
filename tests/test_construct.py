"""Family builders: golden arrays, parameter laws, structural properties."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from dpda import (
    Coded,
    construct,
    construct_even,
    construct_grid,
    construct_jcm,
    construct_odd,
    lift,
    parse_dpda,
    serialize_dpda,
    validate,
)

import construct_reference
from fuzz import slot_senders
from golden import (
    GRID_Q3_TEXT,
    JCM_K4_T2_TEXT,
    P3_TEXT,
    P4_TEXT,
    P5_TEXT,
    P6_TEXT,
    Q_LIFTED_P4_TEXT,
)
from validation_reference import slot_cells


def _digests(family: str) -> dict[str, str]:
    """construct.sha256's text digests of ``family``, by "family params..." name."""
    path = Path(__file__).parent / "golden_cli" / "construct.sha256"
    return {name: digest for digest, name in
            (line.split("  ") for line in path.read_text().splitlines())
            if name.split()[0] == family}


class TestGoldenArrays:
    def test_even_base_is_p4(self):
        assert serialize_dpda(construct_even(2)) == P4_TEXT

    def test_even_q3_is_p6(self):
        assert serialize_dpda(construct_even(3)) == P6_TEXT

    def test_odd_base_is_p3(self):
        assert serialize_dpda(construct_odd(1)) == P3_TEXT

    def test_odd_q2_is_p5(self):
        assert serialize_dpda(construct_odd(2)) == P5_TEXT

    def test_grid_q3_reference(self):
        assert serialize_dpda(construct_grid(3)) == GRID_Q3_TEXT

    def test_jcm_k4_t2_reference(self):
        assert serialize_dpda(construct_jcm(4, 2)) == JCM_K4_T2_TEXT

    def test_lifted_p4_reference(self):
        assert serialize_dpda(lift(construct_even(2), 2)) == Q_LIFTED_P4_TEXT

    @pytest.mark.parametrize("family", ["jcm", "grid", "even", "odd"])
    def test_serialized_digests(self, family):
        # sha256 of the text form for jcm 1 <= t < K <= 10 and (12, 3),
        # grid q 2-16, even q 2-20 and odd q 1-10; pins every slot id
        builder = {"jcm": construct_jcm, "grid": construct_grid,
                   "even": construct_even, "odd": construct_odd}[family]
        expected = _digests(family)
        actual = {}
        for name in expected:
            text = serialize_dpda(builder(*map(int, name.split()[1:])))
            actual[name] = hashlib.sha256(text.encode()).hexdigest()
        assert len(expected) == {"jcm": 46, "grid": 15, "even": 19, "odd": 10}[family]
        assert actual == expected


def _distinct_entries(p) -> int:
    return len({id(e) for row in p.grid for e in row if e is not None})


class TestOneEntryPerSlot:
    @pytest.mark.parametrize("family", ["jcm", "grid", "even", "odd"])
    def test_builders_equal_the_per_cell_reference(self, family):
        # each array holds exactly one Coded object per slot
        for name in _digests(family):
            params = tuple(map(int, name.split()[1:]))
            p = getattr(construct, f"construct_{family}")(*params)
            assert p == getattr(construct_reference, f"construct_{family}")(*params), params
            assert _distinct_entries(p) == p.s, params

    @pytest.mark.parametrize("lp", [1, 2, 3])
    def test_lift_equals_the_per_cell_reference(self, lp):
        # one entry per (copy, slot that occurs), whether or not the input
        # shares its entries: a parsed array, a built one, one with an entry
        # per cell, and P4 declared with S=5, whose slot 4 has no cell
        p4_s5 = parse_dpda(P4_TEXT.replace("S=4", "S=5"))
        bases = [parse_dpda(P5_TEXT), construct_grid(3), construct_jcm(5, 2),
                 construct_reference.construct_jcm(5, 3), p4_s5]
        for base in bases:
            p = lift(base, lp)
            assert p == construct_reference.lift(base, lp)
            assert _distinct_entries(p) == lp * (4 if base is p4_s5 else base.s)


class TestParameterLaws:
    @pytest.mark.parametrize("q", range(2, 9))
    def test_grid(self, q):
        p = construct_grid(q)
        assert (p.k, p.lp, p.f, p.z, p.s) == (2 * q, 1, q * q, q, q**3 - q**2)

    @pytest.mark.parametrize("q", range(2, 13))
    def test_even(self, q):
        p = construct_even(q)
        assert (p.k, p.lp, p.f, p.z, p.s) == (
            2 * q, 1, 2 * q * (q - 1), 2 * (q - 1) ** 2, 2 * q)

    @pytest.mark.parametrize("q", range(1, 13))
    def test_odd(self, q):
        p = construct_odd(q)
        assert (p.k, p.lp, p.f, p.z, p.s) == (
            2 * q + 1, 1, 4 * q * q - 1, (2 * q - 1) ** 2, 4 * q + 2)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_jcm(self, k):
        for t in range(1, k):
            p = construct_jcm(k, t)
            assert (p.k, p.lp, p.f, p.z, p.s) == (
                k, 1, t * comb(k, t), t * comb(k - 1, t - 1),
                (t + 1) * comb(k, t + 1))

    def test_jcm_k3_t1_matches_smallest_case_parameters(self):
        p = construct_jcm(3, 1)
        assert (p.k, p.lp, p.f, p.z, p.s) == (3, 1, 3, 1, 6)


class TestValidityAndOptimality:
    @pytest.mark.parametrize("q", range(2, 7))
    def test_grid_validates(self, q):
        p = construct_grid(q)
        report = validate(p)
        assert report.valid
        assert report.rate_optimality.rate_is_minimal
        assert Fraction(p.s, p.f) == q - 1

    @pytest.mark.parametrize("q", range(2, 9))
    def test_even_validates(self, q):
        p = construct_even(q)
        report = validate(p)
        assert report.valid
        assert report.rate_optimality.rate_is_minimal
        assert Fraction(p.s, p.f) == Fraction(1, q - 1)
        assert len(set(report.broadcast_counts)) == 1

    @pytest.mark.parametrize("q", range(1, 9))
    def test_odd_validates(self, q):
        p = construct_odd(q)
        report = validate(p)
        assert report.valid
        assert report.rate_optimality.rate_is_minimal
        assert Fraction(p.s, p.f) == Fraction(2, 2 * q - 1)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_jcm_validates(self, k):
        for t in range(1, k):
            p = construct_jcm(k, t)
            report = validate(p)
            assert report.valid
            assert report.rate_optimality.rate_is_minimal
            assert Fraction(p.s, p.f) == Fraction(k - t, t)


class TestJcmStructure:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_slots_decode_to_subset_sender_pairs(self, k):
        # slot id (t+1)*rank(U) + idx encodes the (t+1)-subset U and the
        # sender U[idx]; the slot must occur once in every other column of
        # U, in the row block T = U minus that column
        from itertools import combinations

        for t in range(1, k):
            p = construct_jcm(k, t)
            cells = slot_cells(p)
            senders = slot_senders(p)
            tsubsets = list(combinations(range(k), t))
            usubsets = list(combinations(range(k), t + 1))
            assert set(cells) == set(range(p.s))
            for slot in range(p.s):
                u_rank, m_idx = divmod(slot, t + 1)
                u = usubsets[u_rank]
                m = u[m_idx]
                assert senders[slot] == m
                occ = cells[slot]
                assert len(occ) == t
                assert sorted(c for _, c in occ) == sorted(set(u) - {m})
                for r, c in occ:
                    _, t_rank = divmod(r, comb(k, t))
                    assert set(tsubsets[t_rank]) == set(u) - {c}


class TestRecursionStructure:
    @pytest.mark.parametrize("q", range(2, 9))
    def test_even_column_exclusions(self, q):
        # slot s is sent by user s and never touches columns {s, s+1} for
        # even s, {s-1, s} for odd s
        p = construct_even(q)
        senders = slot_senders(p)
        cells = slot_cells(p)
        assert set(cells) == set(range(p.s))
        for s in range(p.s):
            assert senders[s] == s
            excluded = {s, s + 1} if s % 2 == 0 else {s - 1, s}
            assert all(c not in excluded for _, c in cells[s])

    @pytest.mark.parametrize("q", range(1, 9))
    def test_odd_column_exclusions(self, q):
        # slot s is sent by user s//2; the two untouched columns follow the
        # five-way case split of the recursion
        p = construct_odd(q)
        senders = slot_senders(p)
        cells = slot_cells(p)
        assert set(cells) == set(range(p.s))
        for s in range(p.s):
            assert senders[s] == s // 2
            if s in (0, 5):
                excluded = {0, 2}
            elif s in (1, 2):
                excluded = {0, 1}
            elif s in (3, 4):
                excluded = {1, 2}
            elif (s // 2) % 2 == 0:
                excluded = {s // 2 - 1, s // 2}
            else:
                excluded = {s // 2, s // 2 + 1}
            assert all(c not in excluded for _, c in cells[s])


class TestLift:
    def test_identity(self):
        p = construct_grid(2)
        assert lift(p, 1) == p

    def test_lift_p4_by_2_is_two_band_stack(self):
        assert serialize_dpda(lift(construct_even(2), 2)) == Q_LIFTED_P4_TEXT

    def test_lift_parameters_and_validity(self):
        p = lift(construct_odd(2), 3)
        assert (p.k, p.lp, p.f, p.z, p.s) == (5, 3, 15, 9, 30)
        report = validate(p)
        assert report.valid
        assert report.rate_optimality.rate_is_minimal

    @pytest.mark.parametrize("lp", [1, 2, 3])
    def test_lift_preserves_rate_and_validity(self, lp):
        for base in (construct_odd(1), construct_even(2), construct_grid(2)):
            p = lift(base, lp)
            report = validate(p)
            assert report.valid
            assert Fraction(p.s, p.lp * p.f) == Fraction(base.s, base.f)
            assert report.rate_optimality.rate_is_minimal

    def test_lift_shifts_slots_per_band(self):
        base = construct_odd(1)
        p = lift(base, 3)
        for band in range(3):
            for r in range(base.f):
                for c in range(base.k):
                    e, orig = p.grid[band * base.f + r][c], base.grid[r][c]
                    if orig is None:
                        assert e is None
                    else:
                        assert e == Coded(orig.slot + band * base.s, orig.sender)

    def test_lift_rejects_multiband_input(self):
        with pytest.raises(ValueError, match="L'=1"):
            lift(lift(construct_even(2), 2), 2)
        with pytest.raises(ValueError, match="factor"):
            lift(construct_even(2), 0)


@pytest.mark.parametrize(
    "builder,arg",
    [
        (construct_grid, 1),
        (construct_even, 1),
        (construct_odd, 0),
    ],
)
def test_size_preconditions(builder, arg):
    with pytest.raises(ValueError):
        builder(arg)


def test_jcm_t_precondition():
    with pytest.raises(ValueError):
        construct_jcm(4, 0)
    with pytest.raises(ValueError):
        construct_jcm(4, 4)


def test_p5_equals_reference_after_parse():
    assert parse_dpda(P5_TEXT) == construct_odd(2)
