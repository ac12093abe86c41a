"""Exhaustive oracle: existence, minimal S, canonical forms, guards."""

from __future__ import annotations

import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpda import (
    Dpda,
    STAR,
    SearchResult,
    SearchSpaceError,
    construct_even,
    construct_grid,
    construct_jcm,
    construct_odd,
    exists_dpda,
    parse_dpda,
    search_min_s,
    validate,
)

import search_reference
from fuzz import random_symmetry_action, valid_corpus
from golden import P4_TEXT
from symmetry import canonicalize, permute_columns

# arrays small enough for exact canonicalization under the default guard
_small_valid = st.sampled_from(
    [p for p in valid_corpus() if p.lp == 1 and p.f * p.k <= 36 and p.k <= 6]
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class TestExists:
    def test_all_star_feasible_at_s_zero(self):
        res = exists_dpda(3, 2, 2, 0)
        assert res.feasible and res.exhausted
        assert res.witness.grid == ((STAR,) * 3, (STAR,) * 3)
        assert validate(res.witness).valid

    def test_all_star_infeasible_at_s_one(self):
        assert not exists_dpda(3, 2, 2, 1).feasible

    def test_known_smallest_single_star_instance(self):
        res = exists_dpda(3, 3, 1, 6)
        assert res.feasible
        assert validate(res.witness).valid
        assert (res.witness.k, res.witness.f, res.witness.z, res.witness.s) == (3, 3, 1, 6)

    def test_no_four_user_two_row_array(self):
        res = exists_dpda(4, 2, 1, 2)
        assert not res.feasible
        assert res.exhausted
        assert res.nodes_explored > 0

    def test_witnesses_validate(self):
        for k, f, z, s in [(2, 2, 1, 2), (3, 3, 1, 6), (4, 4, 2, 4), (3, 6, 4, 3)]:
            res = exists_dpda(k, f, z, s)
            assert res.feasible
            report = validate(res.witness)
            assert report.valid, (k, f, z, s, report.first_failure)

    def test_witness_deterministic(self):
        assert exists_dpda(4, 4, 2, 4).witness == exists_dpda(4, 4, 2, 4).witness

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            exists_dpda(1, 2, 1, 2)
        with pytest.raises(ValueError):
            exists_dpda(3, 2, 3, 2)
        with pytest.raises(ValueError):
            exists_dpda(3, 2, 1, -1)


class TestMinS:
    def test_single_star_memory_instance(self):
        res = search_min_s(3, 3, 1, 10)
        assert res.feasible and res.minimal_s == 6
        assert validate(res.witness).valid
        assert res.witness.s == 6

    def test_four_user_base_instance(self):
        res = search_min_s(4, 4, 2, 8)
        assert res.minimal_s == 4

    def test_three_user_dense_instance(self):
        res = search_min_s(3, 6, 4, 6)
        assert res.minimal_s == 3

    @pytest.mark.parametrize("args, message", [
        ((2, 2, 3, 4), "require 1 <= Z <= F"),
        ((2, 2, 0, 4), "require 1 <= Z <= F"),
        ((1, 2, 1, 4), "K must be >= 2"),
        ((2, 2, 1, -1), "s_max must be nonnegative"),
        ((2, 2, 3, -2), "require 1 <= Z <= F"),
    ])
    def test_malformed_instance_is_an_error_not_a_verdict(self, args, message):
        with pytest.raises(ValueError, match=message):
            search_min_s(*args)

    def test_infeasible_up_to_limit(self):
        res = search_min_s(3, 3, 1, 5)
        assert not res.feasible
        assert res.minimal_s is None and res.witness is None
        assert res.exhausted

    def test_s_above_the_coded_cells_is_counted_not_scanned(self):
        # every pattern has (F-Z)*K coded cells, so no larger S has a
        # witness and each such S tries all C(F,Z)^K patterns; the scan stops
        # at the cell count and adds that many nodes per S above it
        for k, f, z in search_reference.instances(12):
            cells, patterns = (f - z) * k, comb(f, z) ** k
            at_cells = search_min_s(k, f, z, cells)
            for s in (cells + 1, cells + 2):
                res = exists_dpda(k, f, z, s)
                assert (res.feasible, res.nodes_explored) == (False, patterns), (k, f, z, s)
            for extra in (1, 3):
                res = search_min_s(k, f, z, cells + extra)
                if at_cells.feasible:
                    assert res == at_cells, (k, f, z)
                else:
                    assert res == SearchResult(
                        False, None, None, at_cells.nodes_explored + extra * patterns, True)

    def test_witness_slots_share_one_entry(self):
        # as every builder, lift and parse_dpda do, a witness holds one Coded
        # object per slot, shared by all of the slot's cells
        for k, f, z in search_reference.instances(16):
            res = search_min_s(k, f, z, (f - z) * k)
            if not res.feasible:
                continue
            first = {}
            for row in res.witness.grid:
                for entry in row:
                    if entry is not STAR:
                        assert first.setdefault(entry.slot, entry) is entry, (k, f, z, entry)

    def test_huge_s_max_returns_at_once(self):
        start = time.perf_counter()
        res = search_min_s(2, 3, 1, 10**9)
        assert time.perf_counter() - start < 1
        assert (res.feasible, res.nodes_explored) == (False, 9_000_000_009)

    def test_minimum_never_beats_rate_floor(self):
        for k, f, z in [(2, 2, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2),
                        (4, 4, 2), (3, 6, 4), (4, 4, 3), (2, 4, 2)]:
            res = search_min_s(k, f, z, (f - z) * k)
            floor = _ceil_div(f * (f - z), z)
            if res.feasible:
                assert res.minimal_s >= floor, (k, f, z)
                # every S below the found minimum was exhausted as infeasible
                for s in range(res.minimal_s):
                    assert not exists_dpda(k, f, z, s).feasible
            else:
                for s in range((f - z) * k + 1):
                    assert not exists_dpda(k, f, z, s).feasible

    def test_agrees_with_naive_enumerate_and_validate(self):
        # independent referee: try every star pattern, every slot
        # assignment, every sender vector, and ask the validator
        from itertools import combinations, product

        from dpda import Coded, FormatError, STAR

        def naive_exists(k, f, z, s):
            for cols in product(combinations(range(f), z), repeat=k):
                star = [[r in cols[c] for c in range(k)] for r in range(f)]
                cells = [(r, c) for r in range(f) for c in range(k)
                         if not star[r][c]]
                if s == 0:
                    if not cells:
                        return True
                    continue
                for slots in product(range(s), repeat=len(cells)):
                    for senders in product(range(k), repeat=s):
                        grid = [[STAR if star[r][c] else None
                                 for c in range(k)] for r in range(f)]
                        for (r, c), sl in zip(cells, slots):
                            grid[r][c] = Coded(sl, senders[sl])
                        try:
                            p = Dpda(k=k, lp=1, f=f, z=z, s=s,
                                     grid=tuple(tuple(r) for r in grid))
                        except FormatError:
                            continue
                        if validate(p).valid:
                            return True
            return False

        for k, f, z in [(2, 2, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2), (2, 2, 2)]:
            for s in range((f - z) * k + 1):
                assert exists_dpda(k, f, z, s).feasible == naive_exists(k, f, z, s), \
                    (k, f, z, s)

    def test_agrees_with_unpruned_reference(self):
        # symmetry pruning and the single pattern pass change node counts
        # only; the reference partitions every pattern afresh for each S
        cases = search_reference.instances(12)
        assert len(cases) == 38
        for k, f, z in cases:
            pruned = search_min_s(k, f, z, (f - z) * k)
            full = search_reference.search_min_s(k, f, z, (f - z) * k)
            assert (pruned.feasible, pruned.minimal_s, pruned.exhausted) == \
                (full.feasible, full.minimal_s, full.exhausted), (k, f, z)
            if pruned.feasible:
                assert validate(pruned.witness).valid
                assert validate(full.witness).valid


def test_canonical_patterns_match_generate_and_test_reference():
    # sorted-line generation keeps exactly the patterns, positions and order
    # of the pass that tests every C(F,Z)^K pattern
    from dpda.search import _canonical_patterns

    cases = search_reference.instances(16)
    assert len(cases) == 69
    for k, f, z in cases:
        assert _canonical_patterns(k, f, z) == \
            [(pos, search_reference.facts(star))
             for pos, star in search_reference.canonical_patterns(k, f, z)], (k, f, z)


def test_canonical_patterns_match_bool_row_generator():
    # the mask generator and its permutation tables keep exactly the
    # patterns, positions and order of the sorted-line generator on bool rows;
    # (7,5,2) and (5,6,3) reach the column and row tables at width 5
    from dpda.search import _canonical_patterns

    cases = search_reference.instances(24) + [(7, 5, 2), (5, 6, 3)]
    assert {k <= f for k, f, _z in cases} == {True, False}
    for k, f, z in cases:
        assert _canonical_patterns(k, f, z) == \
            [(pos, search_reference.facts(star))
             for pos, star in search_reference.sorted_line_patterns(k, f, z)], (k, f, z)


def test_partition_matches_set_based_reference():
    # the bitmask partition keeps the set-based one's verdicts, classes,
    # lowest senders and node counts on every star pattern, canonical or not
    from dpda.search import _partition_cells

    pairs = 0
    for k, f, z in search_reference.instances(12):
        for star in search_reference.star_patterns(k, f, z):
            pattern = search_reference.facts(star)
            for s in range((f - z) * k + 1):
                ours, theirs = [0], [0]
                got = _partition_cells(pattern, f, k, z, s, ours)
                want = search_reference.partition_cells(star, f, k, z, s, theirs)
                assert ours == theirs, (star, s)
                assert (got is None) == (want is None), (star, s)
                if got is not None:
                    assert [(list(cells), k - senders.bit_length())
                            for cells, _rows, _cols, senders in got] == \
                        [(cl.cells, min(cl.senders)) for cl in want], (star, s)
                pairs += 1
    assert pairs == 12_981


class TestGuard:
    def test_cells_guard_refuses_large_instances(self):
        # a refusal is an input error, as the CLI reports it (exit 2)
        assert issubclass(SearchSpaceError, ValueError)
        with pytest.raises(SearchSpaceError, match="guard"):
            exists_dpda(6, 9, 3, 18)
        with pytest.raises(ValueError, match="guard"):
            exists_dpda(6, 9, 3, 18)
        with pytest.raises(ValueError, match="guard"):
            search_min_s(6, 9, 3, 18)

    def test_cells_guard_overridable_per_call(self):
        res = exists_dpda(2, 13, 12, 2, cells_limit=26)
        assert res.exhausted and res.feasible


class TestCanonicalize:
    def test_column_swap_orbit(self):
        p4 = parse_dpda(P4_TEXT)
        swapped = permute_columns(p4, [1, 0, 2, 3])
        assert canonicalize(p4) == canonicalize(swapped)

    def test_grid_q2_same_orbit_as_even_base(self):
        assert canonicalize(construct_grid(2)) == canonicalize(construct_even(2))

    def test_idempotent(self):
        for p in (parse_dpda(P4_TEXT), construct_odd(1), construct_jcm(3, 1)):
            c = canonicalize(p)
            assert canonicalize(c) == c

    def test_constant_on_random_orbit_points(self):
        rng = random.Random(99)
        p = construct_odd(1)
        canon = canonicalize(p)
        for _ in range(25):
            assert canonicalize(random_symmetry_action(p, rng)) == canon

    @settings(deadline=None, max_examples=40)
    @given(_small_valid, st.integers(0, 2**32 - 1))
    def test_orbit_constant_property(self, p, seed):
        q = random_symmetry_action(p, random.Random(seed))
        assert canonicalize(q) == canonicalize(p)

    def test_distinct_orbits_stay_distinct(self):
        # the split-slot variant is valid but not rate-optimal, so it cannot
        # share an orbit with the base array
        p4 = parse_dpda(P4_TEXT)
        from dpda import Coded

        grid = [list(row) for row in p4.grid]
        grid[1][1] = Coded(4, 2)
        split = Dpda(k=4, lp=1, f=4, z=2, s=5,
                     grid=tuple(tuple(r) for r in grid))
        assert canonicalize(split) != canonicalize(p4)

    def test_requires_single_band(self):
        from dpda import lift

        with pytest.raises(ValueError, match="L'=1"):
            canonicalize(lift(parse_dpda(P4_TEXT), 2))

    def test_guarded_against_large_instances(self):
        with pytest.raises(SearchSpaceError):
            canonicalize(construct_even(3))
        # explicit limit raises the guard
        c = canonicalize(construct_grid(3), cells_limit=60)
        assert validate(c).valid


def test_search_result_json():
    j = search_min_s(4, 4, 2, 8).to_json()
    assert j["feasible"] is True
    assert j["minimal_s"] == 4
    assert j["witness"].startswith("DPDA K=4")
    assert j["exhausted"] is True
