"""Protocol execution: placement, delivery, decoding, reports.

``simulate`` is the protocol's one path.  ``TestLibrary`` and ``TestPlace``
pin the materialised library and caches of its per-call reference,
``tests/sim_reference.py``, to the byte rule and the star pattern;
``TestDeliver`` and ``TestDecode`` pin that reference's one-demand steps to
``Library.packet``; ``TestAgainstReference`` compares ``simulate`` with that
reference."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import xor

import pytest

import dpda.sim
from dpda.cli import _fast_args
from dpda import (
    Coded,
    Demand,
    Dpda,
    STAR,
    construct_even,
    construct_grid,
    construct_odd,
    lift,
    parse_dpda,
    serialize_dpda,
    simulate,
)

import sim_reference as reference
from sim_reference import (
    Signal,
    SimulationError,
    decode,
    deliver,
    make_library,
    place,
    user_cache_bytes,
)
from fuzz import random_well_formed, valid_corpus
from golden import P3_TEXT, P4_TEXT, P6_TEXT, Q_LIFTED_P4_TEXT


def _chunk_trials(p: Dpda, size: int) -> int:
    """Trials per chunk of ``simulate``, by the rule its docstring states."""
    return max(1, dpda.sim.CHUNK_BYTES // (size * (p.k * p.rows + p.s) + 512))


def _document(tmp_path, p: Dpda, *argv: str, json: bool = True) -> str | dict:
    """What ``dpda simulate`` on ``p`` writes, as ``_cmd_simulate`` returns it:
    the ``--json`` document, or the text."""
    path = tmp_path / "array.dpda"
    path.write_text(serialize_dpda(p))
    argv = ["simulate", str(path), *argv] + ["--json"] * json
    return dpda.sim._cmd_simulate(_fast_args(argv))[0]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class TestLibrary:
    def test_rule_at_origin(self):
        lib = make_library(1, 1, 1, 1)
        assert lib.packet(0, 0, 0) == b"\x00"

    def test_rule_worked_value(self):
        lib = make_library(4, 3, 4, 64)
        assert lib.packet(2, 1, 3)[5] == 105  # (62+17+21+5) mod 256

    def test_determinism(self):
        a = make_library(3, 2, 4, 16)
        b = make_library(3, 2, 4, 16)
        for i in range(3):
            for l in range(2):
                for h in range(4):
                    assert a.packet(i, l, h) == b.packet(i, l, h)

    def test_bad_packet_id(self):
        lib = make_library(1, 1, 1, 1)
        for pid in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
            with pytest.raises(ValueError, match="outside the library"):
                lib.packet(*pid)

    @pytest.mark.parametrize("size", [1, 255, 256, 257, 1000])
    def test_packets_match_the_byte_rule(self, size):
        # reference: the byte rule written out byte by byte; sizes above
        # 256 reach the ramp's wrap-around
        n, l, f = 3, 2, 5
        lib = make_library(n, l, f, size)
        for i, block, h in product(range(n), range(l), range(f)):
            base = i * 31 + block * 17 + h * 7
            assert lib.packet(i, block, h) == bytes((base + o) % 256 for o in range(size))

    def test_size_preconditions(self):
        with pytest.raises(ValueError):
            make_library(0, 1, 1, 1)
        with pytest.raises(ValueError):
            make_library(1, 1, 1, 0)


class TestPlace:
    def test_p4_user0_caches_packets_1_and_3(self):
        p = parse_dpda(P4_TEXT)
        lib = make_library(4, 3, 4, 8)
        caches = place(p, lib)
        assert set(user_cache_bytes(lib, caches, 0)) == {
            (i, l, h) for i in range(4) for l in range(3) for h in (1, 3)
        }

    def test_cache_budget(self):
        p = parse_dpda(P4_TEXT)
        lib = make_library(4, 3, 4, 8)
        caches = place(p, lib)
        for k in range(p.k):
            assert len(set(user_cache_bytes(lib, caches, k))) == p.z * 3 * 4  # Z*L*N

    def test_all_star_caches_everything(self):
        p = Dpda(k=2, lp=1, f=2, z=2, s=0, grid=((STAR, STAR), (STAR, STAR)))
        lib = make_library(2, 1, 2, 4)
        caches = place(p, lib)
        assert all(len(set(user_cache_bytes(lib, caches, k))) == 2 * 1 * 2
                   for k in range(p.k))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="packets per block"):
            place(parse_dpda(P4_TEXT), make_library(4, 3, 5, 8))


class TestDeliver:
    def test_worked_two_band_scenario(self):
        q = parse_dpda(Q_LIFTED_P4_TEXT)
        lib = make_library(4, 3, 4, 64)
        caches = place(q, lib)
        dem = Demand(d=(0, 1, 2, 3), b=(0, 1, 0, 1))
        signals = deliver(q, caches, lib, dem)
        assert len(signals) == 8
        by_slot = {s.slot: s for s in signals}
        # slot 2 (sender: user 2) mixes file 0 block 0 packet 0 with
        # file 1 block 1 packet 1
        sig = by_slot[2]
        assert sig.sender == 2
        assert set(sig.constituents) == {(0, 0, 0), (1, 1, 1)}
        assert sig.payload == _xor(lib.packet(0, 0, 0), lib.packet(1, 1, 1))
        # slot 0 (sender: user 0) mixes file 2 block 0 packet 3 with
        # file 3 block 1 packet 1
        sig = by_slot[0]
        assert sig.sender == 0
        assert set(sig.constituents) == {(2, 0, 3), (3, 1, 1)}
        # slot 4 serves the second requested block of the same pairs
        assert set(by_slot[4].constituents) == {(2, 1, 3), (3, 2, 1)}

    def test_single_constituent_signal_is_verbatim_packet(self):
        grid = (
            (STAR, Coded(0, 0)),
            (Coded(1, 1), STAR),
        )
        p = Dpda(k=2, lp=1, f=2, z=1, s=2, grid=grid)
        lib = make_library(2, 1, 2, 16)
        caches = place(p, lib)
        signals = deliver(p, caches, lib, Demand(d=(0, 1), b=(0, 0)))
        assert signals[0].payload == lib.packet(1, 0, 0)
        assert signals[1].payload == lib.packet(0, 0, 1)

    def test_sender_missing_constituent_aborts(self):
        # reroute slot 1 through user 0, whose cache misses the packets
        p4 = parse_dpda(P4_TEXT)
        grid = [list(row) for row in p4.grid]
        grid[0][3] = Coded(1, 0)
        grid[2][2] = Coded(1, 0)
        bad = Dpda(k=4, lp=1, f=4, z=2, s=4, grid=tuple(tuple(r) for r in grid))
        lib = make_library(4, 1, 4, 8)
        caches = place(bad, lib)
        with pytest.raises(SimulationError, match="sender 0 lacks"):
            deliver(bad, caches, lib, Demand(d=(0, 1, 2, 3), b=(0, 0, 0, 0)))

    def test_demand_range_checks(self):
        p = parse_dpda(P4_TEXT)
        lib = make_library(4, 3, 4, 8)
        caches = place(p, lib)
        with pytest.raises(ValueError, match="file 4"):
            deliver(p, caches, lib, Demand(d=(4, 0, 0, 0), b=(0, 0, 0, 0)))
        with pytest.raises(ValueError, match="start block 3"):
            deliver(p, caches, lib, Demand(d=(0, 0, 0, 0), b=(3, 0, 0, 0)))
        with pytest.raises(ValueError, match="array has 4"):
            deliver(p, caches, lib, Demand(d=(0,), b=(0,)))


class TestDecode:
    def test_worked_scenario_user0(self):
        q = parse_dpda(Q_LIFTED_P4_TEXT)
        lib = make_library(4, 3, 4, 64)
        caches = place(q, lib)
        dem = Demand(d=(0, 1, 2, 3), b=(0, 1, 0, 1))
        signals = deliver(q, caches, lib, dem)
        got = decode(q, user_cache_bytes(lib, caches, 0), signals, dem, 0)
        assert len(got) == q.lp * q.f
        for l in range(2):
            for h in range(4):
                assert got[(0, l, h)] == lib.packet(0, l, h)

    def test_full_cache_decodes_with_zero_signals(self):
        p = Dpda(k=2, lp=1, f=2, z=2, s=0, grid=((STAR, STAR), (STAR, STAR)))
        lib = make_library(2, 2, 2, 8)
        caches = place(p, lib)
        dem = Demand(d=(1, 0), b=(1, 0))
        assert deliver(p, caches, lib, dem) == []
        got = decode(p, user_cache_bytes(lib, caches, 0), [], dem, 0)
        assert got[(1, 1, 0)] == lib.packet(1, 1, 0)

    def test_decoder_ignores_audit_constituents(self):
        q = parse_dpda(Q_LIFTED_P4_TEXT)
        lib = make_library(4, 3, 4, 32)
        caches = place(q, lib)
        dem = Demand(d=(0, 1, 2, 3), b=(0, 1, 0, 1))
        signals = deliver(q, caches, lib, dem)
        corrupted = [
            Signal(slot=s.slot, sender=s.sender, payload=s.payload,
                   constituents=((9, 9, 9),))
            for s in signals
        ]
        for k in range(4):
            cache_k = user_cache_bytes(lib, caches, k)
            assert decode(q, cache_k, signals, dem, k) == \
                decode(q, cache_k, corrupted, dem, k)

    def test_exhaustive_sweep_p3(self):
        p = parse_dpda(P3_TEXT)
        n, l = 3, 2
        lib = make_library(n, l, p.f, 16)
        caches = place(p, lib)
        cache_bytes = [user_cache_bytes(lib, caches, k) for k in range(p.k)]
        demands = 0
        for d in product(range(n), repeat=p.k):
            for b in product(range(l - p.lp + 1), repeat=p.k):
                dem = Demand(d=d, b=b)
                signals = deliver(p, caches, lib, dem)
                assert len(signals) == p.s
                for k in range(p.k):
                    got = decode(p, cache_bytes[k], signals, dem, k)
                    for h in range(p.f):
                        pid = (d[k], b[k], h)
                        assert got[pid] == lib.packet(*pid)
                demands += 1
        assert demands == n**p.k * (l - p.lp + 1) ** p.k == 216


class TestSimulate:
    def test_worked_scenario_report(self, tmp_path):
        q = parse_dpda(Q_LIFTED_P4_TEXT)
        rep = simulate(q, 4, 3, demand=Demand(d=(0, 1, 2, 3), b=(0, 1, 0, 1)))
        assert rep.success
        assert rep.packets_sent == 8
        assert rep.trials == 1
        assert rep.failures == ()
        j = _document(tmp_path, q, "--files", "4", "--blocks", "3", "--demand", "0,1,2,3;0,1,0,1")
        assert j["rate"] == "1"
        assert j["memory_files"] == "2"

    def test_p6_rate_is_half(self):
        p = parse_dpda(P6_TEXT)
        rep = simulate(p, 6, 2, packet_size=16, trials=5, seed=11)
        assert rep.success
        assert Fraction(rep.packets_sent, p.lp * p.f) == Fraction(1, 2)

    def test_grid_q2_hundred_random_demands(self):
        p = construct_grid(2)
        rep = simulate(p, 4, 2, packet_size=16, trials=100, seed=7)
        assert rep.success
        assert rep.trials == 100
        assert Fraction(rep.packets_sent, p.lp * p.f) == Fraction(4, 4)

    def test_trials_are_seed_deterministic(self):
        p = construct_odd(1)
        a = simulate(p, 3, 2, packet_size=8, trials=20, seed=3)
        b = simulate(p, 3, 2, packet_size=8, trials=20, seed=3)
        assert a == b

    def test_non_integer_memory_reported(self, tmp_path):
        p = construct_even(2)
        rep = simulate(p, 3, 2, packet_size=8, trials=2, seed=0)
        assert rep.success
        j = _document(tmp_path, p, "--files", "3", "--blocks", "2", "--packet-size", "8",
                      "--trials", "2")
        assert j["memory_files"] == "3/2"

    def test_report_json_shape(self, tmp_path):
        q = parse_dpda(Q_LIFTED_P4_TEXT)
        j = _document(tmp_path, q, "--files", "4", "--blocks", "3", "--demand", "0,1,2,3;0,1,0,1")
        assert list(j) == ["success", "packets_sent", "rate", "trials",
                           "failures", "memory_files"]
        assert j["rate"] == "1"
        assert j["success"] is True

    def test_three_band_lift_random_demands(self):
        for base in (construct_odd(1), construct_grid(2)):
            p = lift(base, 3)
            rep = simulate(p, 3, 5, packet_size=16, trials=50, seed=21)
            assert rep.success, rep.failures[:1]
            assert Fraction(rep.packets_sent, p.lp * p.f) == Fraction(base.s, base.f)

    def test_blocks_equal_to_request_length(self):
        # L == L' leaves a single admissible start block
        p = lift(construct_even(2), 2)
        rep = simulate(p, 4, 2, packet_size=16, trials=10, seed=2)
        assert rep.success
        assert rep.packets_sent == 8

    def test_wrong_recovered_bytes_raise(self, monkeypatch):
        # a plan that leaves a side cell in user 1's first coded cell is a
        # plan bug: the recovery identity breaks, an assertion names the user
        # and the trial, and no report is made
        user_plan = dpda.sim._user_plan

        def dropping(p, k):
            clashes, fault, coded = user_plan(p, k)
            if k == 1:
                (cell, slot, sides), *rest = coded
                coded = [(cell, slot, sides[1:]), *rest]
            return clashes, fault, coded

        monkeypatch.setattr(dpda.sim, "_user_plan", dropping)
        p = lift(construct_even(2), 2)
        dem = Demand(d=(0, 1, 2, 0), b=(0, 1, 0, 1))
        with pytest.raises(AssertionError, match=r"^user 1 .* in trials 0\.\.0$"):
            simulate(p, 3, 3, packet_size=8, demand=dem)

    def test_flipped_payload_bit_raises(self, monkeypatch):
        # flip one bit of one slot's payload: the first user that decodes
        # from that slot breaks the recovery identity
        payloads = dpda.sim._payloads
        slot = 5

        def flipping(mix, ints):
            out = payloads(mix, ints)
            out[slot] ^= 1 << 13
            return out

        monkeypatch.setattr(dpda.sim, "_payloads", flipping)
        p = lift(construct_even(2), 2)
        dem = Demand(d=(0, 1, 2, 0), b=(0, 1, 0, 1))
        first = min(k for k in range(p.k) for row in p.grid
                    if row[k] is not None and row[k].slot == slot)
        with pytest.raises(AssertionError, match=rf"^user {first} .* in trials 0\.\.0$"):
            simulate(p, 3, 3, packet_size=8, demand=dem)

    def test_memory_does_not_grow_with_library_size(self):
        # a trial touches only the demanded packets, so 200,000 files cost
        # no more memory than a handful
        p = construct_grid(3)
        tracemalloc.start()
        try:
            rep = simulate(p, 200_000, 2, 64, trials=5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.success
        assert peak < 2_000_000, peak

    def test_corrupt_trial_mid_run_raises_for_its_chunk(self, monkeypatch):
        # flip one bit of one slot's payload in the second trial of the
        # second chunk only: the lowest user that decodes from that slot
        # names that chunk's trials, and no later chunk runs
        payloads = dpda.sim._payloads
        p, n, l, size, seed, slot = lift(construct_even(2), 2), 3, 3, 64, 4, 5
        width = _chunk_trials(p, size)
        trials = 3 * width - 5
        calls = []

        def flipping(mix, ints):
            calls.append(len(mix))
            out = payloads(mix, ints)
            if len(calls) == 2:
                out[slot] ^= 1 << 8 * size + 13
            return out

        monkeypatch.setattr(dpda.sim, "_payloads", flipping)
        first = min(k for k in range(p.k) for row in p.grid
                    if row[k] is not None and row[k].slot == slot)
        with pytest.raises(AssertionError,
                           match=rf"^user {first} .* in trials {width}\.\.{2 * width - 1}$"):
            simulate(p, n, l, packet_size=size, trials=trials, seed=seed)
        assert len(calls) == 2

    def test_drawn_demands_follow_randrange(self):
        # an unused slot is a fault that names every trial's demand, so the
        # draws show; they must be the stream of a plain randrange loop,
        # one start block (L = L') included
        for text, lp in product((P3_TEXT, P4_TEXT, P6_TEXT), (1, 2)):
            p = lift(parse_dpda(text), lp)
            unused_slot = Dpda(p.k, p.lp, p.f, p.z, p.s + 1, p.grid)
            for seed, n, starts in product((0, 5, 2**40), (1, 2, 3, 4, 5, 8, 2**32 + 5),
                                           (1, 2, 4)):
                rep = simulate(unused_slot, n, p.lp + starts - 1, 4, trials=7, seed=seed)
                rng = random.Random(seed)
                assert [rec["demand"] for rec in rep.failures] == [
                    [[rng.randrange(n) for _ in range(p.k)],
                     [rng.randrange(starts) for _ in range(p.k)]] for _ in range(7)]

    def test_memory_holds_one_chunk_of_trials(self):
        # a run holds one chunk of trials at a time, so 20,000 trials stay
        # under the traced peak that 50 meet; holding every trial's demand
        # alone would take several megabytes
        p = construct_grid(3)
        for trials in (50, 20_000):
            tracemalloc.start()
            try:
                rep = simulate(p, 8, 2, 64, trials=trials, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.success and rep.trials == trials
            assert peak < 1_000_000, (trials, peak)

    def test_refuses_trials_before_building_the_packet_ramp(self):
        # the ramp is packet_size bytes long, so it is built only once the
        # arguments are checked: a 64 MB packet size costs nothing to refuse
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^trials must be >= 1$"):
                simulate(construct_even(2), 2, 1, packet_size=1 << 26, trials=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_memory_per_chunk_does_not_grow_with_the_array(self):
        # a chunk's trials fit CHUNK_BYTES however large the array: 100 trials
        # of 64-byte packets on grid(8), 1,024 cells and 448 slots, take less
        # than that beyond one trial's peak; chunks of 4096 // 64 trials took
        # about 6.5 MB more.  The first simulate in a process adds about 80 KB
        # of one-time allocations to its peak, so an untraced warm-up run
        # keeps the gap the same whichever tests ran before: it reads about
        # 502,900 B, some 21 KB (4%) under the bound, on CPython 3.11
        p = construct_grid(8)
        simulate(p, 4, 1, 64, trials=1, seed=1)
        peaks = []
        for trials in (1, 100):
            tracemalloc.start()
            try:
                rep = simulate(p, 4, 1, 64, trials=trials, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.success and rep.trials == trials
        assert peaks[1] - peaks[0] < dpda.sim.CHUNK_BYTES, peaks

    @pytest.mark.parametrize("size", [1, 64, 300])
    def test_one_trial_memo_matches_the_bytewise_add(self, size):
        # a one-trial chunk reads the run's packet memo, a wider one adds on
        # the joined integer; each trial's bytes must agree, and the memo
        # holds one integer per first byte, at most 256
        rng = random.Random(size)
        p = lift(construct_grid(3), 2)
        lib, memo = make_library(40, 5, p.f, size), {}
        for _ in range(30):
            dems = [Demand(d=[rng.randrange(40) for _ in range(p.k)],
                           b=[rng.randrange(4) for _ in range(p.k)]) for _ in range(3)]
            wide = dpda.sim._packets(lib._ramp, lib.packet_size, p.lp, p.f, dems, {})
            for t, dem in enumerate(dems):
                ints = dpda.sim._packets(lib._ramp, lib.packet_size, p.lp, p.f, [dem], memo)
                assert ints == [x >> 8 * size * t & (1 << 8 * size) - 1 for x in wide]
        assert 200 < len(memo) <= 256

    @pytest.mark.parametrize("size", [1, 255, 256, 257, 4096])
    def test_cell_integers_are_library_packets(self, size):
        # the byte rule pinned on the integers simulate XORs and strips: in
        # one-trial chunks (through the memo) and wider ones, cell (i, j)
        # holds packet (d_j, b_j + i // F, i mod F) of Library.packet for
        # trial t at bytes [t*size, (t+1)*size); sizes either side of the
        # ramp's 256-byte period reach its wrap-around
        rng = random.Random(size)
        p = lift(construct_grid(3), 2)
        lib, memo = make_library(40, 5, p.f, size), {}
        for width in (1, 1, 3, 7):
            for _ in range(4):
                dems = [Demand(d=[rng.randrange(40) for _ in range(p.k)],
                               b=[rng.randrange(4) for _ in range(p.k)]) for _ in range(width)]
                assert dpda.sim._packets(lib._ramp, lib.packet_size, p.lp, p.f, dems, memo) == [
                    int.from_bytes(b"".join(lib.packet(dem.d[j], dem.b[j] + i // p.f, i % p.f)
                                            for dem in dems), "little")
                    for j in range(p.k) for i in range(p.rows)]

    def test_argument_validation(self):
        p = parse_dpda(P4_TEXT)
        with pytest.raises(ValueError, match="L >= L'"):
            simulate(lift(p, 2), 4, 1, demand=Demand(d=(0,) * 4, b=(0,) * 4))
        with pytest.raises(ValueError, match="exactly one"):
            simulate(p, 4, 3)
        with pytest.raises(ValueError, match="exactly one"):
            simulate(p, 4, 3, demand=Demand(d=(0,) * 4, b=(0,) * 4), trials=2)
        with pytest.raises(ValueError, match="trials"):
            simulate(p, 4, 3, trials=0)
        for n, size in ((0, 64), (4, 0)):
            with pytest.raises(ValueError,
                               match=r"^N, L, F and packet_size must all be >= 1$"):
                simulate(p, n, 3, size, trials=1)


# ------------------------------------------------- against the reference loops


def _broken(p: Dpda, condition: str, rng: random.Random) -> Dpda | None:
    """A copy of ``p`` with ``condition`` broken, or None if ``p`` offers no
    place to break it.  Slot ids stay in range with one sender per slot."""
    grid = [list(row) for row in p.grid]
    s = p.s
    coded = [(r, c) for r, row in enumerate(grid) for c, e in enumerate(row) if e is not None]
    if condition == "c0":
        # flip one lower-band cell: a star takes a coded entry of its row,
        # a coded entry becomes a star
        lower = [(r, c) for r, c in product(range(p.f, p.lp * p.f), range(p.k))
                 if grid[r][c] is not None or any(grid[r])]
        if not lower:
            return None
        r, c = rng.choice(lower)
        grid[r][c] = next(e for e in grid[r] if e is not None) if grid[r][c] is None else STAR
    elif condition == "c2":
        s += 1  # the new top slot id never occurs
    elif condition == "c3":
        # hand one slot to the column of one of its own cells
        r, c = rng.choice(coded)
        slot = grid[r][c].slot
        for r2, c2 in coded:
            if grid[r2][c2].slot == slot:
                grid[r2][c2] = Coded(slot, c)
    elif condition == "c4a":
        # copy one coded entry over another in the same row
        rows = [r for r, row in enumerate(grid) if sum(e is not None for e in row) >= 2]
        if not rows:
            return None
        r = rng.choice(rows)
        c1, c2 = rng.sample([c for c, e in enumerate(grid[r]) if e is not None], 2)
        grid[r][c2] = grid[r][c1]
    else:  # c4b: move one coded cell into another slot
        r, c = rng.choice(coded)
        r2, c2 = rng.choice(coded)
        grid[r][c] = grid[r2][c2]
    return Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=s, grid=tuple(tuple(row) for row in grid))


def _reference_corpus() -> dict[str, list[Dpda]]:
    """Small valid arrays and their lifts, copies of them with each condition
    broken, and arbitrary well-formed arrays."""
    rng = random.Random(2024)
    bases = [p for p in valid_corpus() if p.f * p.lp * p.k <= 96]
    valid = (bases + [lift(p, 2) for p in bases if p.lp == 1]
             + [lift(p, 3) for p in bases if p.lp == 1 and p.f * p.k <= 16])
    corpus = {"valid": valid}
    for condition in ("c0", "c2", "c3", "c4a", "c4b"):
        corpus[condition] = [q for p in valid for _ in range(2)
                             if (q := _broken(p, condition, rng)) is not None]
    corpus["well_formed"] = [random_well_formed(random.Random(seed)) for seed in range(60)]
    return corpus


REFERENCE_CORPUS = _reference_corpus()
FAILURE_KINDS = ("never occurs", "lacks packet", "should have cached",
                 "cannot remove uncached", "twice")
# (files, spare start blocks, packet size), rotated over each group's arrays:
# one-byte packets, packets either side of the ramp's 256-byte period, and
# long ones, so that payload integers reach every width edge
EDGES = ((2, 2, 1), (3, 1, 255), (2, 2, 257), (2, 0, 4096))


def _outcome(fn, *args, **kwargs):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (SimulationError, ValueError, IndexError, KeyError) as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    def test_corpus_reaches_every_failure(self):
        errors = [f["error"] for arrays in REFERENCE_CORPUS.values() for p in arrays
                  for f in simulate(p, 3, p.lp + 1, packet_size=8, trials=4, seed=1).failures]
        assert all(any(kind in e for e in errors) for kind in FAILURE_KINDS)

    @pytest.mark.parametrize("group", list(REFERENCE_CORPUS))
    def test_simulate_reports_match(self, group):
        rng = random.Random(group)
        for index, p in enumerate(REFERENCE_CORPUS[group]):
            for n, extra, size in ((3, 1, 8), (2, 0, 300), EDGES[index % len(EDGES)]):
                l = p.lp + extra
                kwargs = dict(packet_size=size, trials=12, seed=rng.randrange(100))
                assert simulate(p, n, l, **kwargs) == reference.simulate(p, n, l, **kwargs), p
                # in range, then possibly out of range (a failed trial, not a raise)
                for d_max, b_max in ((n, l - p.lp + 1), (n + 1, l - p.lp + 2)):
                    dem = Demand(d=tuple(rng.randrange(d_max) for _ in range(p.k)),
                                 b=tuple(rng.randrange(b_max) for _ in range(p.k)))
                    assert simulate(p, n, l, packet_size=size, demand=dem) == \
                        reference.simulate(p, n, l, packet_size=size, demand=dem), (p, dem)

    @pytest.mark.parametrize("group", list(REFERENCE_CORPUS))
    def test_simulate_reports_match_across_chunks(self, group):
        # three chunks, the last one partial unless chunks hold one trial, so
        # failures must keep trial order across chunk edges; one-byte packets
        # make chunks of about 1,000 trials, so only the smallest array takes
        # them, and the last size is stretched, where the array is small,
        # until a chunk holds one trial
        rng = random.Random(f"chunks/{group}")
        arrays = REFERENCE_CORPUS[group]
        late = 0
        for size in (1, 64, 4096, 5000):
            sample = ([min(arrays, key=lambda p: p.k * p.rows)] if size == 1
                      else rng.sample(arrays, 3))
            for p in sample:
                packet = size if size < 5000 else max(
                    size, dpda.sim.CHUNK_BYTES // (p.k * p.rows + p.s) + 1)
                width = _chunk_trials(p, packet)
                assert width > 1 or size > 64
                assert width == 1 or size < 5000
                kwargs = dict(packet_size=packet, trials=2 * width + 1, seed=rng.randrange(100))
                rep = simulate(p, 3, p.lp + 1, **kwargs)
                assert rep == reference.simulate(p, 3, p.lp + 1, **kwargs), (p, packet)
                late += any(f["trial"] >= 2 * width for f in rep.failures)
        assert (late > 0) == (group != "valid")

    @pytest.mark.parametrize("group", list(REFERENCE_CORPUS))
    def test_deliver_and_decode_match(self, group):
        # simulate's core on a one-trial chunk against the reference steps,
        # byte for byte: each slot's payload is the signal deliver sends,
        # each user that decodes recovers what decode returns, and a plan
        # fault or a refusal is the message the step raises
        rng = random.Random(group)
        for index, p in enumerate(REFERENCE_CORPUS[group]):
            size = EDGES[index % len(EDGES)][2]
            lib = make_library(3, p.lp + 1, p.f, size)
            caches = place(p, lib)
            dem = Demand(d=tuple(rng.randrange(3) for _ in range(p.k)),
                         b=tuple(rng.randrange(2) for _ in range(p.k)))
            mix, fault = dpda.sim._slot_plan(p)
            signals = _outcome(deliver, p, caches, lib, dem)
            if fault is not None:
                assert signals == (SimulationError, dpda.sim._say(fault, dem, p.f)), (p, dem)
                continue
            ints = dpda.sim._packets(lib._ramp, lib.packet_size, p.lp, p.f, [dem], {})
            payloads = dpda.sim._payloads(mix, ints)
            assert [sig.payload for sig in signals] == [
                x.to_bytes(size, "little") for x in payloads], (p, dem)
            for k in range(p.k):
                plan = dpda.sim._user_plan(p, k)
                message = dpda.sim._refusal(plan, dem, k, p.f)
                got = _outcome(decode, p, user_cache_bytes(lib, caches, k), signals, dem, k)
                if message:
                    assert got == (SimulationError, message), (p, dem, k)
                    continue
                # a coded cell is its slot's payload minus its side cells; a
                # cached row is the user's own cell integer
                own = ints[k * p.rows:(k + 1) * p.rows]
                for cell, slot, sides in plan[2]:
                    own[cell - k * p.rows] = reduce(xor, (ints[c] for c in sides), payloads[slot])
                assert got == {dpda.sim._pid(dem, p.f, i, k): x.to_bytes(size, "little")
                               for i, x in enumerate(own)}, (p, dem, k)

    @pytest.mark.parametrize("group", list(REFERENCE_CORPUS))
    def test_cli_document_matches_fraction_document(self, tmp_path, group):
        # the handler renders the rate S/(L'F) and the cache size ZN/F
        # without fractions; its document must be the one built from the
        # reference's report and Fraction, as text and as --json, for
        # --trials and --demand runs, faults and refusals included
        rng = random.Random(f"document/{group}")
        for p in REFERENCE_CORPUS[group]:
            n, l = rng.randrange(1, 4), p.lp + rng.randrange(2)
            dem = Demand(d=tuple(rng.randrange(n) for _ in range(p.k)),
                         b=tuple(rng.randrange(l - p.lp + 1) for _ in range(p.k)))
            literal = ",".join(map(str, dem.d)) + ";" + ",".join(map(str, dem.b))
            for kwargs, argv in (
                    (dict(trials=5, seed=3), ["--trials", "5", "--seed", "3"]),
                    (dict(demand=dem), ["--demand", literal])):
                rep = reference.simulate(p, n, l, packet_size=8, **kwargs)
                expected = {"success": rep.success, "packets_sent": rep.packets_sent,
                            "rate": str(Fraction(rep.packets_sent, p.lp * p.f)),
                            "trials": rep.trials, "failures": list(rep.failures),
                            "memory_files": str(Fraction(p.z * n, p.f))}
                argv = ["--files", str(n), "--blocks", str(l), "--packet-size", "8", *argv]
                assert _document(tmp_path, p, *argv) == expected, (p, argv)
                assert _document(tmp_path, p, *argv, json=False) == "".join(
                    f"{key}: {value}\n" for key, value in expected.items()), (p, argv)


def test_ratio_is_the_fraction_str():
    pairs = [*product(range(201), range(1, 201)),
             (2**64, 2**64 + 2), (2**64 + 1, 2**64 + 1), (3**50, 2**70), (6**40, 6**41),
             (0, 2**65), (10**30 * 7, 10**30), (2**100 - 1, 2**100 + 1)]
    assert [(a, b) for a, b in pairs if dpda.sim._ratio(a, b) != str(Fraction(a, b))] == []
