"""Wire format: parsing, serialization, JSON mirror, structural errors."""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpda import (
    Coded,
    Dpda,
    FormatError,
    STAR,
    construct_even,
    construct_grid,
    construct_jcm,
    dpda_to_json,
    parse_dpda,
    serialize_dpda,
)

import core_reference
from fuzz import differential_corpus, lifted_corpus
from golden import P4_TEXT, P6_TEXT, SINGLE_STAR_TEXT
from strategies import well_formed_dpdas


def _outcome(parse, arg):
    """What ``parse`` returns, or the type and message of what it raises."""
    try:
        return parse(arg)
    except Exception as exc:  # compared with whatever the reference raises
        return type(exc), str(exc)


def test_parse_p4():
    p = parse_dpda(P4_TEXT)
    assert (p.k, p.lp, p.f, p.z, p.s) == (4, 1, 4, 2, 4)
    assert p.grid[0][0] == Coded(2, 2)
    assert p.grid[0][1] is STAR
    assert p.grid[3][2] == Coded(0, 0)


def test_parse_accepts_bytes_and_loose_whitespace():
    text = "DPDA K=1 L'=1 F=1 Z=1 S=1\n  0^0  \n"
    assert parse_dpda(text.encode()) == parse_dpda(text)


def test_parse_single_star():
    p = parse_dpda(SINGLE_STAR_TEXT)
    assert (p.k, p.lp, p.f, p.z, p.s) == (1, 1, 1, 1, 0)
    assert p.grid == ((STAR,),)


def test_serialize_round_trips_p4():
    assert serialize_dpda(parse_dpda(P4_TEXT)) == P4_TEXT


def test_serialize_single_star():
    assert serialize_dpda(parse_dpda(SINGLE_STAR_TEXT)) == SINGLE_STAR_TEXT


def test_even_family_q3_serializes_to_reference_text():
    assert serialize_dpda(construct_even(3)) == P6_TEXT


def test_slot_out_of_range_reports_coordinates():
    bad = P4_TEXT.replace("1^1 *\n", "4^1 *\n", 1)
    with pytest.raises(FormatError, match=r"row 2, column 2: slot 4"):
        parse_dpda(bad)


def test_sender_out_of_range_reports_coordinates():
    bad = P4_TEXT.replace("0^0 *\n", "0^9 *\n", 1)
    with pytest.raises(FormatError, match=r"row 3, column 2: sender 9"):
        parse_dpda(bad)


def test_conflicting_senders_rejected():
    bad = P4_TEXT.replace("* 2^2 * 0^0", "* 2^1 * 0^0")
    with pytest.raises(FormatError, match=r"slot 2 has sender 1"):
        parse_dpda(bad)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "DPDA K=4 F=4 Z=2 S=4\n",  # missing L'
        "PDDA K=1 L'=1 F=1 Z=1 S=0\n*\n",
        "DPDA K=x L'=1 F=1 Z=1 S=0\n*\n",
        "DPDA K=2 L'=1 F=2 Z=1 S=0\n* *\n",  # one row short
        "DPDA K=2 L'=1 F=1 Z=1 S=0\n* * *\n",  # extra column
        "DPDA K=1 L'=1 F=1 Z=1 S=1\nbogus\n",
        "DPDA K=\u00b2 L'=1 F=1 Z=1 S=0\n*\n",  # superscript two passes isdigit()
        "DPDA K=1 L'=1 F=1 Z=1 S=4\n\u0663^0\n",  # Arabic-Indic three
        "DPDA K=0 L'=1 F=1 Z=1 S=0\n",  # no users, no row
        "DPDA K=1 L'=0 F=1 Z=1 S=0\n*\n",  # no band
        # beyond int()'s digit limit
        pytest.param("DPDA K=" + "1" * 5000 + " L'=1 F=1 Z=1 S=0\n*\n", id="long-header-value"),
        pytest.param("DPDA K=1 L'=1 F=1 Z=1 S=4\n" + "1" * 5000 + "^0\n", id="long-slot"),
        # L'*F has more digits than str() writes
        pytest.param("DPDA K=1 L'=" + "1" * 2200 + " F=" + "1" * 2200 + " Z=1 S=0\n*\n",
                     id="long-row-count"),
        pytest.param(b"\xff", id="invalid-utf8"),
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(FormatError) as raised:
        parse_dpda(text)
    # with the message of the per-cell reference parser
    assert _outcome(core_reference.parse_dpda, text) == (FormatError, str(raised.value))


def test_grid_dimension_invariants_enforced():
    with pytest.raises(FormatError, match="rows"):
        Dpda(k=2, lp=1, f=2, z=1, s=0, grid=((STAR, STAR),))
    with pytest.raises(FormatError, match="columns"):
        Dpda(k=2, lp=1, f=1, z=1, s=0, grid=((STAR,),))
    huge = int("1" * 2200)  # L'*F and K past str()'s digit limit
    with pytest.raises(FormatError, match="rows"):
        Dpda(k=1, lp=huge, f=huge, z=1, s=0, grid=((STAR,),))
    with pytest.raises(FormatError, match="columns"):
        Dpda(k=huge * huge, lp=1, f=1, z=1, s=0, grid=((STAR,),))


def test_json_mirror_round_trip():
    p = parse_dpda(P4_TEXT)
    mirror = dpda_to_json(p)
    assert list(mirror) == ["k", "lp", "f", "z", "s", "grid"]
    assert mirror["grid"][0] == ["2^2", "*", "*", "1^1"]
    # the mirror holds the text's header values and tokens
    lines = serialize_dpda(p).splitlines()
    assert lines[0] == "DPDA K={k} L'={lp} F={f} Z={z} S={s}".format(**mirror)
    assert mirror["grid"] == [line.split() for line in lines[1:]]


@given(well_formed_dpdas())
def test_round_trip_identity(p):
    assert parse_dpda(serialize_dpda(p)) == p


@given(well_formed_dpdas())
def test_serialization_is_canonical(p):
    clone = Dpda(k=p.k, lp=p.lp, f=p.f, z=p.z, s=p.s,
                 grid=tuple(tuple(row) for row in p.grid))
    assert serialize_dpda(clone) == serialize_dpda(p)


def test_round_trip_seeded_fuzz():
    from fuzz import random_well_formed

    rng = random.Random(20240817)
    for _ in range(300):
        p = random_well_formed(rng)
        assert parse_dpda(serialize_dpda(p)) == p


def test_transform_argument_validation():
    from symmetry import permute_band_rows, permute_columns, relabel_slots

    p = parse_dpda(P4_TEXT)
    with pytest.raises(ValueError, match="permutation"):
        permute_band_rows(p, [0, 1, 2])
    with pytest.raises(ValueError, match="permutation"):
        permute_columns(p, [0, 0, 1, 2])
    with pytest.raises(ValueError, match="injective"):
        relabel_slots(p, {0: 1, 1: 1, 2: 2, 3: 3})
    assert permute_band_rows(p, [0, 1, 2, 3]) == p
    assert permute_columns(p, [0, 1, 2, 3]) == p
    assert relabel_slots(p, [0, 1, 2, 3]) == p


# near-miss headers and tokens reach the field and token checks, which
# arbitrary text rarely does
_numbers = st.integers(0, 4).map(str) | st.text("019\u00b2\u0663-x", max_size=3)
_tokens = (st.sampled_from(["*", "0^0", "1^1", "0^1"])
           | st.builds("{}^{}".format, _numbers, _numbers) | st.text(max_size=3))
_texts = st.text() | st.binary() | st.builds(
    lambda nums, rows: "DPDA " + " ".join(map("{}={}".format, ("K", "L'", "F", "Z", "S"), nums))
    + "".join("\n" + " ".join(row) for row in rows),
    st.lists(_numbers, min_size=5, max_size=5),
    st.lists(st.lists(_tokens, max_size=3), max_size=3),
)


@settings(deadline=None, max_examples=300)
@given(_texts)
def test_parse_raises_only_format_error(text):
    try:
        parse_dpda(text)
    except FormatError:
        pass


# Tokens that reach every error path of the token parser and of Dpda's
# structural check once they replace a cell.
_ODD_TOKENS = ("", "x", "1^", "^1", "1^1^1", "-1^0", "\u0663^0", "7^0", "0^7",
               "9" * 5000 + "^0", "0^" + "9" * 5000)


def _corrupted(text: str, rng: random.Random) -> str:
    """``text`` with two seeded body cells replaced, each by an odd token, a
    zero-padded copy of a token, or the other's replacement; "" drops one."""
    lines = text.splitlines()
    new = None
    for _ in range(2):
        r = rng.randrange(1, len(lines))
        toks = lines[r].split()
        c = rng.randrange(len(toks))
        new = rng.choice([*_ODD_TOKENS, "0" + toks[c], new or "x"])
        toks[c] = new
        lines[r] = " ".join(toks)
    return "\n".join(lines) + "\n"


def test_parsers_match_reference_and_share_entries():
    rng = random.Random(20261018)
    texts = [serialize_dpda(p) for p in differential_corpus()]
    texts += [_corrupted(serialize_dpda(p), rng) for p in lifted_corpus() for _ in range(20)]
    errors = 0
    for text in texts:
        got = _outcome(parse_dpda, text)
        assert got == _outcome(core_reference.parse_dpda, text), text
        if isinstance(got, tuple):
            errors += 1
            continue
        # one entry object per distinct coded token, shared by all its cells
        tokens = {tok for line in text.splitlines()[1:] for tok in line.split()} - {"*"}
        assert len({id(e) for row in got.grid for e in row if e is not None}) == len(tokens)
    assert errors > 300  # the corrupted texts reach the error paths


# Digit strings that str.isdigit(), int() and the reference's [0-9]+ read
# differently: non-ASCII digits, int()'s underscore and sign, extra or
# missing carets, zero padding, and more digits than int() converts.
_DIGIT_EDGES = ("\u0663", "\u00b2", "1_0", "+1", "", "0003", "1" * 5000)
_TOKEN_EDGES = ("\u0663^1", "\u00b2^1", "1_0^2", "+1^2", "1^2^3", "^1", "1^", "0003^1",
                "1" * 5000 + "^1", "1^" + "1" * 5000, "1" * 5000 + "^" + "1" * 6000)


def test_readers_match_reference_on_digit_edges():
    texts = [f"DPDA K={v} L'=1 F=1 Z=1 S=0\n* * *\n" for v in _DIGIT_EDGES]
    texts += [f"DPDA K=2 L'=1 F=2 Z=1 S=4\n{tok} *\n* *\n" for tok in _TOKEN_EDGES]
    outcomes = []
    for text in texts:
        outcomes.append(_outcome(parse_dpda, text))
        assert outcomes[-1] == _outcome(core_reference.parse_dpda, text), text
    # "0003^1" and the zero-padded header value parse; every other edge is refused
    assert [type(o) is Dpda for o in outcomes] == [
        v == "0003" for v in _DIGIT_EDGES] + [tok == "0003^1" for tok in _TOKEN_EDGES]


# Cells that are neither a star nor a Coded entry: falsy ones, which a
# truthiness test would take for stars, and other objects.
_NON_ENTRIES = (0, "", False, (), [], 1, True, "0^0", (0, 0), 0.0, object())


@pytest.mark.parametrize("cell", _NON_ENTRIES,
                         ids=lambda cell: "object()" if type(cell) is object else repr(cell))
def test_dpda_refuses_non_entries(cell):
    p = parse_dpda(P4_TEXT)
    grid = [list(row) for row in p.grid]
    grid[2][1] = cell  # a star's cell, after coded cells in rows 0-1
    with pytest.raises(FormatError) as raised:
        Dpda(p.k, p.lp, p.f, p.z, p.s, grid)
    assert str(raised.value) == "row 2, column 1: not a star or coded entry"
    assert _outcome(lambda g: core_reference.check_dpda(4, 1, 4, 2, 4, g), grid) == (
        FormatError, str(raised.value))


@pytest.mark.parametrize("z, s, message", [
    (-1, 4, "Z and S must be nonnegative"),
    (2, -1, "Z and S must be nonnegative"),
    (2, 16, None),
    (2, 17, "S=17 exceeds the 16 cells (L'*F*K)"),
    (2, 2**20000, "S=at least 2^20000 exceeds the 16 cells (L'*F*K)"),
], ids=["z-1", "s-1", "s=cells", "s>cells", "s-huge"])
def test_dpda_checks_z_and_s_as_reference(z, s, message):
    # the reader cannot pass a negative Z or S; library callers can.  S may
    # be at most the L'*F*K cells, so no slot index outgrows the grid
    p = parse_dpda(P4_TEXT)
    args = (p.k, p.lp, p.f, z, s, p.grid)
    got = _outcome(lambda a: Dpda(*a).grid, args)
    assert got == (p.grid if message is None else (FormatError, message))
    assert got == _outcome(lambda a: core_reference.check_dpda(*a), args)


def test_dpda_refuses_a_short_row_before_sizing_the_slot_index():
    # a header's S sizes the slot index only once every row has K entries,
    # so a one-cell grid under K = S = 200,000 is refused without it
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^row 0: expected 200000 columns, got 1$"):
            Dpda(k=200_000, lp=1, f=1, z=0, s=200_000, grid=[[None]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def _faulty_grids(rng: random.Random):
    """Copies of the lifted corpus, each with one to three seeded faults: a
    row one cell short or long, a non-entry, a slot or sender out of range,
    or a coded cell handed to the next user (two senders for its slot)."""
    for p in lifted_corpus():
        for _ in range(30):
            grid = [list(row) for row in p.grid]
            for _ in range(rng.randint(1, 3)):
                r = rng.randrange(len(grid))
                row = grid[r]
                c = rng.randrange(len(row)) if row else 0
                kind = rng.randrange(6)
                if kind == 0:
                    del row[-1:]
                elif kind == 1:
                    row.append(rng.choice([STAR, Coded(0, 0)]))
                elif kind == 2 and row:
                    row[c] = rng.choice(_NON_ENTRIES)
                elif kind == 3 and row:
                    row[c] = rng.choice([Coded(p.s, 0), Coded(-1, 0), Coded(0, p.k),
                                         Coded(0, -1)])
                elif row and row[c] is not None and isinstance(row[c], Coded):
                    row[c] = Coded(row[c].slot, (row[c].sender + 1) % p.k)
            yield (p.k, p.lp, p.f, p.z, p.s, grid)


def test_dpda_check_matches_reference_on_faulty_grids():
    # the first fault in row-major order wins, a wrong row length before the
    # row's cells, with the reference check's exception and message
    errors = 0
    for args in _faulty_grids(random.Random(20261019)):
        got = _outcome(lambda a: Dpda(*a).grid, args)
        assert got == _outcome(lambda a: core_reference.check_dpda(*a), args), args
        errors += got[0] is FormatError  # else got is the grid
    assert errors > 300


def _text_with(p: Dpda, *edits: tuple[int, int | None, str]) -> str:
    """``p``'s text with each (row, column, token) edit; a column of None
    drops the row's last token instead."""
    lines = serialize_dpda(p).splitlines()
    for r, c, tok in edits:
        toks = lines[r + 1].split()
        if c is None:
            toks.pop()
        else:
            toks[c] = tok
        lines[r + 1] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("short, message", [
    (4, "row 5, column 3: bad token 'x'"),
    (5, "row 5, column 3: bad token 'x'"),
    (6, "row 5, column 3: bad token 'x'"),
])
def test_reader_names_the_first_fault_in_row_order(short, message):
    # a bad token in row 5, with a short row before, at or after it: the
    # token is named, as every token is read before Dpda checks the shape
    p = construct_jcm(10, 5)
    text = _text_with(p, (5, 3, "x"), (short, None, ""))
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_dpda(text)
    assert _outcome(core_reference.parse_dpda, text) == (FormatError, message)


def test_reader_counts_carets_per_token():
    # two carets in one token and none in another add up to one caret per
    # token, so a caret count over the whole body would pass them; the
    # reader refuses the first of them
    p = construct_jcm(6, 3)
    c = next(c for c, e in enumerate(p.grid[1]) if e is not None)
    text = _text_with(p, (1, c, "1^2^3"), (4, 0, "4"))
    message = f"row 1, column {c}: bad token '1^2^3'"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_dpda(text)
    assert _outcome(core_reference.parse_dpda, text) == (FormatError, message)


def test_reader_names_a_long_token_late_in_a_large_array():
    p = construct_jcm(10, 5)
    r = p.rows - 2
    c = next(c for c, e in enumerate(p.grid[r]) if e is not None)
    text = _text_with(p, (r, c, "9" * 5000 + f"^{p.grid[r][c].sender}"))
    message = f"row {r}, column {c}: 5000-digit integer is too long"
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_dpda(text)
    assert _outcome(core_reference.parse_dpda, text) == (FormatError, message)


def test_reader_names_a_two_sender_slot_first_seen_in_a_later_row():
    # the slot's tokens all parse; Dpda's check names its first cell with
    # the other sender, and where the slot's first sender was set
    p = construct_grid(6)
    cells = [(r, c) for r, row in enumerate(p.grid) for c, e in enumerate(row)
             if e is not None and e.slot == 7]
    (r0, c0), (r, c) = cells[0], cells[-1]
    sender = p.grid[r][c].sender
    text = _text_with(p, (r, c, f"7^{(sender + 1) % p.k}"))
    message = (f"row {r}, column {c}: slot 7 has sender {(sender + 1) % p.k}, "
               f"but row {r0}, column {c0} assigned sender {sender}")
    assert r > r0
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_dpda(text)
    assert _outcome(core_reference.parse_dpda, text) == (FormatError, message)
