"""Exact bound calculators and baseline comparisons."""

from __future__ import annotations

from fractions import Fraction

import pytest

from dpda import (
    bounds_for_array,
    bounds_for_case,
    compare_to_jcm,
    construct_even,
    construct_grid,
    construct_jcm,
    construct_odd,
    jcm_params,
    lift,
    min_f_bound,
    parse_dpda,
    rate_lower_bound,
)
from dpda.bounds import applicable_cases, format_table

from golden import MIN_F_K3_TEXT, P4_TEXT, P5_TEXT, SINGLE_STAR_TEXT


def test_rate_lower_bound_values():
    assert rate_lower_bound(4, 2) == 1
    assert rate_lower_bound(9, 3) == 2
    assert rate_lower_bound(7, 7) == 0
    assert rate_lower_bound(12, 8) == Fraction(1, 2)


def test_rate_lower_bound_errors():
    with pytest.raises(ValueError, match="positive"):
        rate_lower_bound(4, 0)
    with pytest.raises(ValueError, match="Z <= F"):
        rate_lower_bound(2, 3)


def test_min_f_bound_values():
    assert min_f_bound(6, "2/K") == 9
    assert min_f_bound(3, "(K-1)/K") == 6
    assert min_f_bound(5, "(K-2)/K") == 15
    assert min_f_bound(4, "(K-2)/K") == 4
    assert min_f_bound(6, "(K-2)/K") == 12
    assert min_f_bound(7, "1/K") == 7
    assert min_f_bound(5, "2/K") == 7  # ceiling of 25/4
    assert min_f_bound(4, "(K-1)/K") == 12


def test_min_f_bound_errors():
    with pytest.raises(ValueError, match="memory ratio"):
        min_f_bound(6, "3/K")
    with pytest.raises(ValueError, match="K >= 3"):
        min_f_bound(2, "(K-2)/K")


def test_jcm_params_values():
    assert jcm_params(4, 2) == jcm_params(4, 2)
    jp = jcm_params(4, 2)
    assert (jp.f, jp.z, jp.s, jp.r) == (12, 6, 12, 1)
    jp = jcm_params(6, 1)
    assert (jp.f, jp.z, jp.s, jp.r) == (6, 1, 30, 5)
    for k in range(3, 9):
        jp = jcm_params(k, k - 1)
        assert jp.f == (k - 1) * k
        assert jp.r == Fraction(1, k - 1)


def test_jcm_params_errors():
    with pytest.raises(ValueError):
        jcm_params(4, 0)
    with pytest.raises(ValueError):
        jcm_params(4, 4)


def test_jcm_is_rate_optimal_for_all_small_parameters():
    for k in range(2, 13):
        for t in range(1, k):
            jp = jcm_params(k, t)
            assert jp.r == rate_lower_bound(jp.f, jp.z)


def test_jcm_misses_packet_number_floor_at_inner_ratios():
    for k in (4, 6, 8, 10):
        assert jcm_params(k, 2).f > min_f_bound(k, "2/K")
        assert jcm_params(k, k - 2).f > min_f_bound(k, "(K-2)/K")


def test_jcm_meets_packet_number_floor_at_edge_ratios():
    for k in range(3, 10):
        assert jcm_params(k, 1).f == min_f_bound(k, "1/K")
        assert jcm_params(k, k - 1).f == min_f_bound(k, "(K-1)/K")


def test_compare_to_jcm_grid_q3():
    cmp = compare_to_jcm(construct_grid(3))
    assert (cmp.k, cmp.t) == (6, 2)
    assert (cmp.f_ours, cmp.f_jcm) == (9, 30)
    assert cmp.ratio == Fraction(9, 30) == Fraction(3, 10)
    assert cmp.rate == 2


def test_compare_to_jcm_even_base():
    cmp = compare_to_jcm(construct_even(2))
    assert (cmp.f_ours, cmp.f_jcm) == (4, 12)
    assert cmp.ratio == Fraction(1, 3)


def test_compare_to_jcm_rejects_uncovered_ratio():
    with pytest.raises(ValueError):
        compare_to_jcm(parse_dpda(SINGLE_STAR_TEXT))


def test_grid_ratio_approaches_one_quarter():
    for q in range(8, 21):
        ratio = Fraction(q * q, jcm_params(2 * q, 2).f)
        assert abs(ratio - Fraction(1, 4)) < Fraction(1, q)


def test_even_and_odd_ratios_exact():
    for q in range(2, 13):
        p = construct_even(q)
        assert Fraction(p.f, jcm_params(p.k, p.k - 2).f) == Fraction(1, 2 * q - 1)
    for q in range(1, 13):
        p = construct_odd(q)
        assert Fraction(p.f, jcm_params(p.k, p.k - 2).f) == Fraction(1, q)


def test_applicable_cases_overlap_resolution():
    # K=3, Z/F = 2/3 matches both 2/K and (K-1)/K; the strongest floor wins
    assert set(applicable_cases(3, 4, 6)) == {"2/K", "(K-1)/K"}
    # Z = 0 is no covered case, even where a case's ratio reads 0
    assert applicable_cases(1, 0, 3) == applicable_cases(2, 0, 4) == ()
    # a case that needs more users than K does not apply: Z/F = 1 reads 1/K at K = 1
    assert applicable_cases(1, 1, 1) == ()
    assert applicable_cases(2, 1, 2) == ("1/K", "(K-1)/K")
    report = bounds_for_array(parse_dpda(MIN_F_K3_TEXT))
    assert report.case == "(K-1)/K"
    assert report.f_bound == 6
    assert report.meets_rate_bound and report.meets_f_bound


def test_bounds_for_array_p4():
    report = bounds_for_array(parse_dpda(P4_TEXT))
    assert report.rate_bound == 1
    assert report.f_bound == 4
    assert report.achieved_rate == 1
    assert report.meets_rate_bound is True
    assert report.meets_f_bound is True


def test_bounds_for_array_p5():
    report = bounds_for_array(parse_dpda(P5_TEXT))
    assert report.case == "(K-2)/K"
    assert report.f_bound == 15
    assert report.meets_f_bound is True


def test_bounds_for_array_uncovered_ratio():
    # Z/F = 3/6 = 1/2 matches none of the covered cases at K = 6
    p = construct_jcm(6, 3)
    report = bounds_for_array(p)
    assert report.case is None
    assert report.rate_bound == rate_lower_bound(p.f, p.z)
    assert report.f_bound is None
    assert report.meets_f_bound is None
    assert report.meets_rate_bound is True
    assert report.to_json()["f_bound"] == "not covered"


def test_bounds_for_case_notes_odd_k():
    report = bounds_for_case(5, "2/K")
    assert report.f_bound == 7
    assert report.notes
    assert bounds_for_case(6, "2/K").notes == ()


def test_bounds_for_case_rate_bound_is_the_closed_form():
    # at Z/F = t/K, t the case's numerator, the rate floor is (K - t)/t
    numerators = {"1/K": lambda k: 1, "2/K": lambda k: 2,
                  "(K-2)/K": lambda k: k - 2, "(K-1)/K": lambda k: k - 1}
    for case, numerator in numerators.items():
        for k in range(3 if case == "(K-2)/K" else 2, 13):
            t = numerator(k)
            assert bounds_for_case(k, case).rate_bound == Fraction(k - t, t), (case, k)


def test_every_family_meets_its_floor():
    instances = (
        [construct_grid(q) for q in range(2, 7)]
        + [construct_even(q) for q in range(2, 8)]
        + [construct_odd(q) for q in range(1, 7)]
        + [construct_jcm(k, 1) for k in range(2, 8)]
        + [construct_jcm(k, k - 1) for k in range(2, 8)]
    )
    for p in [q for base in instances for q in (base, lift(base, 2), lift(base, 3))]:
        report = bounds_for_array(p)
        assert report.meets_rate_bound, (p.k, p.lp, p.f, p.z)
        assert report.meets_f_bound, (p.k, p.lp, p.f, p.z)
        # its bounds are its case's, field for field
        case = bounds_for_case(p.k, report.case)
        assert (report.case, report.rate_bound, report.f_bound, report.notes) == \
            (case.case, case.rate_bound, case.f_bound, case.notes), (p.k, p.lp, p.f, p.z)


def test_achieved_rate_never_below_bound():
    for k in range(2, 7):
        for t in range(1, k):
            report = bounds_for_array(construct_jcm(k, t))
            assert report.achieved_rate >= report.rate_bound


def test_format_table_alignment():
    text = format_table(["a", "bbb"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert lines[0] == "a    bbb"
    assert lines[1] == "---  ---"
    assert lines[2] == "1    2"
    assert lines[3] == "333  4"
