"""``simulate``'s decoding verdicts against linear decoding over GF(2).

``tests/decode_reference.py`` decides whether a demand is served from the
grid's entries alone, with no slot plan, so a plan that let a user decode
what the signals cannot carry would show here.  One signal per coded cell
is stricter than linear decoding, so ``simulate`` may refuse a demand the
oracle serves, never the reverse.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache
from itertools import product

import pytest

from dpda import Demand, lift, parse_dpda, simulate, validate

from decode_reference import decodes
from fuzz import differential_corpus, lifted_corpus
from golden import P3_TEXT, P4_TEXT

# (validate, simulate, GF(2)) verdicts of 5 seeded demands per array of each
# slice of the differential corpus (N = 3, L = L' + 1): the lifted valid
# arrays, two halves of their single-cell flips, and the random arrays
COUNTS = {
    "lifted": {(True, True, True): 145},
    "flips/1": {(False, True, True): 1285, (False, False, True): 179,
                (False, False, False): 3886},
    "flips/2": {(False, True, True): 885, (False, False, True): 523,
                (False, False, False): 3947},
    "random": {(True, True, True): 635, (False, True, True): 1248,
               (False, False, True): 11, (False, False, False): 8106},
}


@cache
def _slices() -> dict[str, list]:
    corpus, valid = differential_corpus(), len(lifted_corpus())
    flips = corpus[valid:-2000]
    half = len(flips) // 2
    return {"lifted": corpus[:valid], "flips/1": flips[:half], "flips/2": flips[half:],
            "random": corpus[-2000:]}


@pytest.mark.parametrize("name", list(COUNTS))
def test_simulate_decodes_only_what_the_signals_carry(name):
    # simulate's success implies linear decoding, every valid array decodes
    # under both, and the verdict counts are pinned
    rng = random.Random(f"gf2/{name}")
    counts = Counter()
    for p in _slices()[name]:
        valid = validate(p).valid
        for _ in range(5):
            d = tuple(rng.randrange(3) for _ in range(p.k))
            b = tuple(rng.randrange(2) for _ in range(p.k))
            served = simulate(p, 3, p.lp + 1, packet_size=1, demand=Demand(d, b)).success
            linear = decodes(p, d, b, p.lp + 1)
            assert linear or not served, (p, d, b)
            assert (served and linear) or not valid, (p, d, b)
            counts[valid, served, linear] += 1
    assert dict(counts) == COUNTS[name]


@pytest.mark.parametrize("text, lp", [(P3_TEXT, 1), (P4_TEXT, 1), (P4_TEXT, 2)],
                         ids=["P3", "P4", "P4-lift2"])
def test_valid_arrays_decode_every_demand(text, lp):
    # every demand of 3 files of L' + 1 blocks, under both arguments
    p = lift(parse_dpda(text), lp)
    for d in product(range(3), repeat=p.k):
        for b in product(range(2), repeat=p.k):
            assert simulate(p, 3, lp + 1, packet_size=1, demand=Demand(d, b)).success, (d, b)
            assert decodes(p, d, b, lp + 1), (d, b)
