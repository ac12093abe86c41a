"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from dpda import (
    Demand,
    construct_even,
    construct_grid,
    construct_jcm,
    construct_odd,
    decode,
    deliver,
    exists_dpda,
    jcm_params,
    lift,
    make_library,
    min_f_bound,
    parse_dpda,
    place,
    search_min_s,
    serialize_dpda,
    simulate,
    slot_cells,
    user_cache_bytes,
    validate,
)

from fuzz import random_symmetry_action, random_well_formed, slot_senders
from golden import (
    GRID_Q3_TEXT,
    JCM_K4_T2_TEXT,
    P3_TEXT,
    P4_TEXT,
    P5_TEXT,
    P6_TEXT,
    Q_LIFTED_P4_TEXT,
)

GRID_RANGE = range(2, 9)
EVEN_RANGE = range(2, 13)
ODD_RANGE = range(1, 13)
JCM_RANGE = [(k, t) for k in range(2, 9) for t in range(1, k)]


@contextmanager
def criterion(number: int, label: str, limit_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit_s is not None and elapsed >= limit_s:
            print(f"ACCEPTANCE {number} ({label}): FAIL "
                  f"[{elapsed:.2f}s over the {limit_s:.0f}s budget]")
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {limit_s}s")
    except BaseException:
        if limit_s is None or time.perf_counter() - start < limit_s:
            print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def instances():
    return {
        "grid": {q: construct_grid(q) for q in GRID_RANGE},
        "even": {q: construct_even(q) for q in EVEN_RANGE},
        "odd": {q: construct_odd(q) for q in ODD_RANGE},
        "jcm": {(k, t): construct_jcm(k, t) for k, t in JCM_RANGE},
    }


def test_criterion_1_golden_arrays():
    with criterion(1, "golden arrays", limit_s=1.0):
        golden = [
            (construct_even(2), P4_TEXT),
            (construct_even(3), P6_TEXT),
            (construct_odd(1), P3_TEXT),
            (construct_odd(2), P5_TEXT),
            (construct_grid(3), GRID_Q3_TEXT),
            (construct_jcm(4, 2), JCM_K4_T2_TEXT),
            (lift(construct_even(2), 2), Q_LIFTED_P4_TEXT),
        ]
        for built, text in golden:
            assert serialize_dpda(built) == text
            assert validate(built).valid


def test_criterion_2_family_parameter_laws(instances):
    with criterion(2, "family parameter laws", limit_s=5.0):
        for q, p in instances["grid"].items():
            assert (p.k, p.lp, p.f, p.z, p.s) == (2 * q, 1, q * q, q, q**3 - q**2)
        for q, p in instances["even"].items():
            assert (p.k, p.lp, p.f, p.z, p.s) == (
                2 * q, 1, 2 * q * (q - 1), 2 * (q - 1) ** 2, 2 * q)
        for q, p in instances["odd"].items():
            assert (p.k, p.lp, p.f, p.z, p.s) == (
                2 * q + 1, 1, 4 * q * q - 1, (2 * q - 1) ** 2, 4 * q + 2)
        for (k, t), p in instances["jcm"].items():
            assert (p.k, p.lp, p.f, p.z, p.s) == (
                k, 1, t * comb(k, t), t * comb(k - 1, t - 1),
                (t + 1) * comb(k, t + 1))


def test_criterion_3_rate_optimality(instances):
    with criterion(3, "rate optimality"):
        for q, p in instances["grid"].items():
            assert validate(p).rate_optimality.rate_is_minimal
            assert Fraction(p.s, p.lp * p.f) == q - 1 == Fraction(p.f - p.z, p.z)
        for q, p in instances["even"].items():
            assert validate(p).rate_optimality.rate_is_minimal
            assert Fraction(p.s, p.lp * p.f) == Fraction(1, q - 1)
        for q, p in instances["odd"].items():
            assert validate(p).rate_optimality.rate_is_minimal
            assert Fraction(p.s, p.lp * p.f) == Fraction(2, 2 * q - 1)
        for (k, t), p in instances["jcm"].items():
            assert validate(p).rate_optimality.rate_is_minimal
            rate = Fraction(p.s, p.lp * p.f)
            assert rate == Fraction(k - t, t)
            # N/M - 1 at memory ratio M/N = t/K
            assert rate == Fraction(k, t) - 1


def test_criterion_4_packet_number_floors(instances):
    with criterion(4, "packet-number floor attainment"):
        for q, p in instances["grid"].items():
            assert p.f == min_f_bound(p.k, "2/K") == p.k * p.k // 4
        for q, p in instances["even"].items():
            assert p.f == min_f_bound(p.k, "(K-2)/K") == p.k * (p.k - 2) // 2
        for q, p in instances["odd"].items():
            assert p.f == min_f_bound(p.k, "(K-2)/K") == p.k * (p.k - 2)
        for k in range(2, 9):
            assert instances["jcm"][(k, 1)].f == min_f_bound(k, "1/K") == k
            if k >= 3:
                assert instances["jcm"][(k, k - 1)].f == \
                    min_f_bound(k, "(K-1)/K") == k * (k - 1)


def test_criterion_5_baseline_gap():
    with criterion(5, "baseline packet-number gap"):
        for k in (4, 6, 8, 10):
            assert jcm_params(k, 2).f > min_f_bound(k, "2/K")
            assert jcm_params(k, k - 2).f > min_f_bound(k, "(K-2)/K")
        for q in range(8, 17):
            ratio = Fraction(q * q, jcm_params(2 * q, 2).f)
            assert abs(ratio - Fraction(1, 4)) < Fraction(1, q)
        for q in EVEN_RANGE:
            k = 2 * q
            assert Fraction(2 * q * (q - 1), jcm_params(k, k - 2).f) == \
                Fraction(1, 2 * q - 1)
        for q in ODD_RANGE:
            k = 2 * q + 1
            assert Fraction(4 * q * q - 1, jcm_params(k, k - 2).f) == \
                Fraction(1, q)


def _sweep_all_demands(p, n: int, l: int, packet_size: int) -> int:
    lib = make_library(n, l, p.f, packet_size)
    caches = place(p, lib)
    cache_bytes = [user_cache_bytes(lib, caches, k) for k in range(p.k)]
    count = 0
    for d in product(range(n), repeat=p.k):
        for b in product(range(l - p.lp + 1), repeat=p.k):
            dem = Demand(d=d, b=b)
            signals = deliver(p, caches, lib, dem)
            assert len(signals) == p.s
            for k in range(p.k):
                got = decode(p, cache_bytes[k], signals, dem, k)
                for i in range(p.lp * p.f):
                    pid = (d[k], b[k] + i // p.f, i % p.f)
                    assert got[pid] == lib.packet(*pid)
            count += 1
    return count


def test_criterion_6_end_to_end_protocol():
    with criterion(6, "end-to-end protocol", limit_s=60.0):
        q = lift(construct_even(2), 2)
        rep = simulate(q, 4, 3, demand=Demand(d=(0, 1, 2, 3), b=(0, 1, 0, 1)))
        assert rep.success
        assert rep.packets_sent == 8
        assert rep.rate == 1

        p3 = parse_dpda(P3_TEXT)
        assert _sweep_all_demands(p3, n=3, l=2, packet_size=64) == 216

        p4 = parse_dpda(P4_TEXT)
        assert _sweep_all_demands(p4, n=4, l=3, packet_size=64) == 20736


def test_criterion_7_randomized_protocol(instances):
    with criterion(7, "randomized protocol runs", limit_s=120.0):
        seed = 0
        for group in ("grid", "even", "odd", "jcm"):
            for key, p in instances[group].items():
                if p.k > 10:
                    continue
                seed += 1
                rep = simulate(p, 4, 3, packet_size=32, trials=100, seed=seed)
                assert rep.success, (group, key, rep.failures[:1])
                assert rep.trials == 100
                assert rep.rate == Fraction(p.s, p.lp * p.f)


def test_criterion_8_search_oracle():
    searches = [
        ((3, 3, 1, 10), 6),
        ((4, 4, 2, 8), 4),
        ((3, 6, 4, 6), 3),
    ]
    with criterion(8, "search oracle vs theory"):
        for (k, f, z, s_max), expected in searches:
            start = time.perf_counter()
            res = search_min_s(k, f, z, s_max)
            assert time.perf_counter() - start < 60.0
            assert res.feasible and res.exhausted
            assert res.minimal_s == expected
            assert validate(res.witness).valid
            assert res.minimal_s * z >= f * (f - z)

        start = time.perf_counter()
        res = exists_dpda(4, 2, 1, 2)
        assert time.perf_counter() - start < 60.0
        assert not res.feasible and res.exhausted

        # exhaust a grid of small instances; no witness may undercut the
        # exact rate floor S*Z >= F*(F-Z)
        for k, f, z in [(2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 3, 1), (3, 3, 2),
                        (3, 4, 2), (3, 4, 3), (4, 3, 2), (4, 4, 2), (4, 4, 3),
                        (3, 6, 4), (2, 4, 2)]:
            for s in range((f - z) * k + 1):
                res = exists_dpda(k, f, z, s)
                assert res.exhausted
                if res.feasible:
                    assert s * z >= f * (f - z), (k, f, z, s)
                    assert validate(res.witness).valid


def test_criterion_9_property_suites(instances):
    with criterion(9, "property suites"):
        rng = random.Random(2024)
        bases = [parse_dpda(t) for t in (P3_TEXT, P4_TEXT, P5_TEXT, P6_TEXT,
                                         Q_LIFTED_P4_TEXT, GRID_Q3_TEXT,
                                         JCM_K4_T2_TEXT)]

        # validator verdict constant under 1,000 random symmetry actions
        # per base array
        for p in bases:
            assert validate(p).valid
            for _ in range(1000):
                q = random_symmetry_action(p, rng)
                assert validate(q).valid

        # column-exclusion structure of every constructed even/odd instance
        for p in instances["even"].values():
            cells, senders = slot_cells(p), slot_senders(p)
            for s in range(p.s):
                assert senders[s] == s
                excluded = {s, s + 1} if s % 2 == 0 else {s - 1, s}
                assert all(c not in excluded for _, c in cells[s])
        for p in instances["odd"].values():
            cells, senders = slot_cells(p), slot_senders(p)
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

        # lifting preserves validity, rate and the minimal-rate property
        for base in (parse_dpda(P3_TEXT), parse_dpda(P4_TEXT),
                     construct_grid(2), construct_jcm(3, 1)):
            for lp in (1, 2, 3):
                lifted = lift(base, lp)
                report = validate(lifted)
                assert report.valid
                assert Fraction(lifted.s, lifted.lp * lifted.f) == \
                    Fraction(base.s, base.f)
                assert report.rate_optimality.rate_is_minimal
                assert len(set(report.broadcast_counts)) == 1

        # 1,000 fuzzed well-formed arrays round-trip the text format
        from dpda import parse_dpda as parse

        for _ in range(1000):
            p = random_well_formed(rng)
            assert parse(serialize_dpda(p)) == p
