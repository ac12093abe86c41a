"""Wire format: parsing, serialization, JSON mirror, structural errors."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpda import (
    Coded,
    Dpda,
    FormatError,
    STAR,
    construct_even,
    dpda_from_json,
    dpda_to_json,
    parse_dpda,
    serialize_dpda,
)

from golden import P4_TEXT, P6_TEXT, SINGLE_STAR_TEXT
from strategies import well_formed_dpdas


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
    with pytest.raises(FormatError):
        parse_dpda(text)


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
    assert dpda_from_json(mirror) == p


def test_json_mirror_accepts_string():
    import json

    p = parse_dpda(P4_TEXT)
    assert dpda_from_json(json.dumps(dpda_to_json(p))) == p


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
    from dpda import permute_band_rows, permute_columns, relabel_slots

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


def test_json_mirror_rejects_malformed():
    with pytest.raises(FormatError):
        dpda_from_json("not json")
    with pytest.raises(FormatError):
        dpda_from_json({"k": 1, "lp": 1, "f": 1, "z": 1})
    with pytest.raises(FormatError):
        dpda_from_json([1, 2, 3])
    for grid in (5, [5], None):
        with pytest.raises(FormatError):
            dpda_from_json({"k": 1, "lp": 1, "f": 1, "z": 1, "s": 0, "grid": grid})
    with pytest.raises(FormatError):  # json.loads accepts Infinity
        dpda_from_json('{"k": Infinity, "lp": 1, "f": 1, "z": 1, "s": 0, "grid": [["*"]]}')
    with pytest.raises(FormatError):
        dpda_from_json({"k": 1.5, "lp": 1, "f": 1, "z": 1, "s": 0, "grid": [["*"]]})
    with pytest.raises(FormatError):  # json.loads recurses once per level
        dpda_from_json("[" * 100_000 + "]" * 100_000)
    token: list = []
    for _ in range(100_000):  # str() recurses once per level
        token = [token]
    with pytest.raises(FormatError):
        dpda_from_json({"k": 1, "lp": 1, "f": 1, "z": 1, "s": 0, "grid": [[token]]})


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
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _tokens,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
_mirrors = st.fixed_dictionaries({}, optional={
    key: st.integers(0, 3) | st.sampled_from([1.5, float("inf"), True, "\u0663"]) | _json_values
    for key in ("k", "lp", "f", "z", "s", "grid")
})


def _nested_json(key: str, depth: int, dicts: bool) -> str:
    """JSON text nested ``depth`` levels deep, bare or as the value of ``key``."""
    text = '{"a": ' * depth + "0" + "}" * depth if dicts else "[" * depth + "]" * depth
    return f'{{"{key}": {text}}}' if key else text


# nesting deeper than json.loads can recurse, bare or under a mirror key
_deep_json = st.builds(_nested_json, st.sampled_from(["", "k", "grid"]),
                       st.integers(1, 100_000), st.booleans())


@settings(deadline=None, max_examples=300)
@given(_texts)
def test_parse_raises_only_format_error(text):
    try:
        parse_dpda(text)
    except FormatError:
        pass


@settings(deadline=None, max_examples=300)
@given(_mirrors.map(lambda obj: (obj, json.dumps(obj))) | _deep_json.map(lambda text: (text,)))
def test_json_mirror_raises_only_format_error(mirrors):
    for mirror in mirrors:
        try:
            dpda_from_json(mirror)
        except FormatError:
            pass
