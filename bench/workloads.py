"""Seeded op decks for the three benchmark workloads, and their output checks.

A *deck* is the list of CLI ops one round of a workload runs.  The seed
fixes every input: which arrays, lifts, mutations, protocol parameters and
op order.  Decks are drawn by stratified sampling so that every seed gives
a deck of about the same cost; the seed changes which members of each
stratum appear, never how many.

Every op carries its expected answer in ``expect``; :func:`check` compares
the CLI's exit code and output against it and returns an error message, or
``None`` when the op is correct.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The two op classes whose medians each workload reports as class_a / class_b.
CLASSES = {
    "families": ("valid", "reject"),
    "protocol": ("bulk", "demand"),
    "search": ("feasible", "exhaust"),
}

CONDITION_ORDER = ("c0", "c1", "c2", "c3", "c4a", "c4b", "unique_sender", "slot_contiguity")


@dataclass
class Op:
    """One CLI invocation: ``argv`` after ``dpda``, its class and expected answer."""

    cls: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Deck:
    """One round of ops, plus the array files set-up must write before it runs.

    ``groups`` are runs of ops that must stay in order (an array's construct
    before its checks); a round shuffles the groups.  ``files`` maps a file
    name to the ``construct`` arguments that build it; ``mutations`` maps a
    mutated copy's name to (source file, condition).
    """

    groups: list[list[Op]]
    files: dict[str, list[str]] = field(default_factory=dict)
    mutations: dict[str, tuple[str, str]] = field(default_factory=dict)


# ---------------------------------------------------------------- families


def closed_form(family: str, params: tuple[int, ...], lp: int = 1) -> dict:
    """(K, L', F, Z, S) of a family array from its closed form, after a lift."""
    if family == "jcm":
        k, t = params
        f, z, s = t * comb(k, t), t * comb(k - 1, t - 1), (t + 1) * comb(k, t + 1)
    else:
        (q,) = params
        k, f, z, s = {
            "grid": (2 * q, q * q, q, q**3 - q**2),
            "even": (2 * q, 2 * q * (q - 1), 2 * (q - 1) ** 2, 2 * q),
            "odd": (2 * q + 1, 4 * q * q - 1, (2 * q - 1) ** 2, 4 * q + 2),
        }[family]
    return {"k": k, "lp": lp, "f": f, "z": z, "s": lp * s}


def construct_args(family: str, params: tuple[int, ...], lp: int) -> list[str]:
    args = ["construct", "--family", family]
    if family == "jcm":
        args += ["--k", str(params[0]), "--t", str(params[1])]
    else:
        args += ["--q", str(params[0])]
    if lp > 1:
        args += ["--lift", str(lp)]
    return args


# The families pool.  Every deck holds all of it, so that its cost does not
# depend on the seed; the seed picks the lifts, the mutations and the order.
# The largest LARGE_TWICE arrays appear twice, which weights the deck toward
# large arrays (they form the tail).  Arrays below LIFT_CELLS cells are
# lifted: of each two neighbours in size, a seeded one to L' = 2 and the
# other to L' = 3, so that every seed lifts about the same number of cells.
FAMILY_POOL = (
    [("grid", (q,)) for q in range(6, 17, 2)]
    + [("even", (q,)) for q in range(8, 21, 3)]
    + [("odd", (q,)) for q in range(4, 11, 2)]
    + [("jcm", kt) for kt in ((7, 3), (8, 3), (9, 4), (12, 3), (10, 4), (10, 5))]
)
LARGE_TWICE = 5
LIFT_CELLS = 2500


def _cells(family: str, params: tuple[int, ...]) -> int:
    form = closed_form(family, params)
    return form["f"] * form["k"]


def families_deck(seed: int) -> Deck:
    """Each array: construct --out, validate --optimal, bounds --from, compare.

    A seeded quarter of the arrays, one from each run of four in size order
    after lifting, also gets a mutated copy that ``validate`` must reject at
    a condition fixed by construction.
    """
    rng = random.Random(f"families/{seed}")
    by_size = sorted(FAMILY_POOL, key=lambda a: _cells(*a))
    small = [a for a in by_size if _cells(*a) < LIFT_CELLS]
    lifts = {}
    for pair in zip(small[::2], small[1::2]):
        lifts.update(zip(rng.sample(pair, 2), (2, 3)))
    picks = sorted(((fam, params, lifts.get((fam, params), 1))
                    for fam, params in by_size + by_size[-LARGE_TWICE:]),
                   key=lambda a: _cells(a[0], a[1]) * a[2])
    rejected = {rng.randrange(i, min(i + 4, len(picks))) for i in range(0, len(picks), 4)}
    deck = Deck(groups=[])
    for i, (fam, params, lp) in enumerate(picks):
        name = f"arr{i}.dpda"
        form = closed_form(fam, params, lp)
        k, t = form["k"], form["k"] * form["z"] // form["f"]
        f_jcm = t * comb(k, t)
        group = [
            Op("construct", construct_args(fam, params, lp) + ["--out", name], {"header": form}),
            Op("valid", ["validate", name, "--optimal"]),
            Op("bounds", ["bounds", "--from", name, "--json"], {"header": form}),
            Op("compare", ["compare", name],
               {"row": [k, t, form["f"], f_jcm, str(Fraction(form["f"], f_jcm)),
                        str(Fraction(form["s"], form["lp"] * form["f"]))]}),
        ]
        if i in rejected:
            kinds = ["c1", "c2", "c3", "c4a"]
            kinds += ["c0"] if lp > 1 else []
            # An unlifted even array has two coded cells per row, laid out so
            # that no single moved cell breaks C4b without breaking C4a.
            kinds += ["c4b"] if lp > 1 or fam != "even" else []
            condition = rng.choice(kinds)
            src, bad = f"src{i}.dpda", f"bad{i}.dpda"
            deck.files[src] = construct_args(fam, params, lp)
            deck.mutations[bad] = (src, condition)
            group.append(Op("reject", ["validate", bad], {"condition": condition}))
        deck.groups.append(group)
    return deck


def mutate(text: str, condition: str, rng: random.Random) -> str:
    """Change a valid array so that ``condition`` is the first to fail.

    Every mutation keeps the file well formed (slot ids in range, one sender
    per slot), so the CLI reaches the validator, and leaves every condition
    checked before ``condition`` intact.
    """
    form = _header(text)
    k, lp, f = form["k"], form["lp"], form["f"]
    grid = [line.split() for line in text.splitlines()[1:]]
    coded = [(r, c) for r in range(lp * f) for c in range(k) if grid[r][c] != "*"]

    def slot_of(r: int, c: int) -> str:
        return grid[r][c].split("^")[0]

    occurrences = Counter(slot_of(r, c) for r, c in coded)

    if condition == "c1":
        # Z+1 in the header: the star pattern itself stays periodic (C0).
        form["z"] += 1
    elif condition == "c2":
        # S+1 in the header: the new top slot id is never used.
        form["s"] += 1
    elif condition == "c0":
        # Overwrite a star in a lower band with a token copied from its row;
        # the first band, and with it C0's reference pattern, is unchanged.
        r = rng.randrange(f, lp * f)
        c = rng.choice([c for c in range(k) if grid[r][c] == "*"])
        grid[r][c] = next(tok for tok in grid[r] if tok != "*")
    elif condition == "c3":
        # Hand one slot to the column of one of its own cells, whose row
        # holds that very coded entry instead of a star.
        r, c = rng.choice(coded)
        slot = slot_of(r, c)
        for r2, c2 in coded:
            if slot_of(r2, c2) == slot:
                grid[r2][c2] = f"{slot}^{c}"
    elif condition == "c4a":
        # Copy one coded token over another in the same row; the overwritten
        # slot occurs elsewhere too, so C2 still holds, and the copied
        # slot's sender still has a star in this row (C3).
        rows = [r for r in range(lp * f)
                if sum(1 for c in range(k) if grid[r][c] != "*") >= 2]
        r = rng.choice(rows)
        c1, c2 = rng.sample([c for c in range(k) if grid[r][c] != "*"], 2)
        if occurrences[slot_of(r, c2)] < 2:
            c1, c2 = c2, c1
        if occurrences[slot_of(r, c2)] < 2:
            raise ValueError(f"row {r}: both coded slots occur once; C2 would fail first")
        grid[r][c2] = grid[r][c1]
    elif condition == "c4b":
        grid = _break_c4b(grid, coded, occurrences, rng)
    else:
        raise ValueError(f"no mutation targets {condition!r}")
    header = f"DPDA K={k} L'={lp} F={f} Z={form['z']} S={form['s']}"
    return "\n".join([header] + [" ".join(row) for row in grid]) + "\n"


def _break_c4b(grid: list[list[str]], coded: list[tuple[int, int]],
               occurrences: Counter, rng: random.Random) -> list[list[str]]:
    """Move cell (j2, k2) into the slot of (j1, k1) so that the new pair sits
    in distinct rows and columns (C4a holds) and the sender keeps its star in
    row j2 (C3 holds), but a crossing cell is coded (C4b fails)."""
    cells = list(coded)
    rng.shuffle(cells)
    for j1, k1 in cells:
        tok = grid[j1][k1]
        sender = tok.split("^")[1]
        members = [(r, c) for r, c in coded if grid[r][c] == tok]
        rows = {r for r, _ in members}
        cols = {c for _, c in members}
        for j2, k2 in cells:
            if j2 in rows or k2 in cols or grid[j2][int(sender)] != "*":
                continue
            if occurrences[grid[j2][k2].split("^")[0]] < 2:
                continue
            if grid[j1][k2] == "*" and grid[j2][k1] == "*":
                continue
            out = [row[:] for row in grid]
            out[j2][k2] = tok
            return out
    raise ValueError("no cell pair breaks C4b alone")


# ---------------------------------------------------------------- protocol

# Small arrays of each family; a deck uses two of each, at a seeded lift.
PROTOCOL_ARRAYS = {
    "even": [(3,), (4,)],
    "odd": [(2,), (3,)],
    "grid": [(3,), (4,)],
}
BULK_BYTES = 1_500_000   # library bytes a bulk op builds, about
# A demand trial costs about cells * (K+1) + 3 * S * K steps: deliver walks
# every cell, each of the K decodes re-indexes the whole array, and every
# user handles every slot.  Lifts whose trial count would leave TRIALS are
# not drawn.
DEMAND_WORK = 360_000
TRIALS = (100, 900)
OPS_PER_ARRAY = 2  # of each class, per round


def _trial_work(form: dict) -> int:
    k = form["k"]
    return form["lp"] * form["f"] * k * (k + 1) + 3 * form["s"] * k


def protocol_deck(seed: int) -> Deck:
    """Bulk ops build a large library for few demands; demand ops build a
    tiny one and serve hundreds.  Every array gets the same number of ops of
    each class; their parameters are seeded, and each op's size is scaled so
    that its cost is about the same whichever array it uses."""
    rng = random.Random(f"protocol/{seed}")
    deck = Deck(groups=[])
    arrays = []
    for fam, members in PROTOCOL_ARRAYS.items():
        for params in members:
            lp = rng.choice([lp for lp in (1, 2, 3) if TRIALS[0] <= DEMAND_WORK
                             / _trial_work(closed_form(fam, params, lp)) <= TRIALS[1]])
            name = f"{fam}{params[0]}x{lp}.dpda"
            deck.files[name] = construct_args(fam, params, lp)
            arrays.append((name, closed_form(fam, params, lp)))
    for (name, form), cls, _ in product(arrays, ("bulk", "demand"), range(OPS_PER_ARRAY)):
        k, lp, f = form["k"], form["lp"], form["f"]
        blocks = lp + rng.randrange(3)
        if cls == "bulk":
            size = 1024 * rng.randint(4, 16)
            trials = rng.randint(1, 3)
            files = max(2, round(BULK_BYTES / (size * blocks * f)))
        else:
            size = rng.randint(16, 64)
            files = rng.randint(2, 8)
            trials = round(DEMAND_WORK / _trial_work(form))
        argv = ["simulate", name, "--files", str(files), "--blocks", str(blocks),
                "--packet-size", str(size), "--trials", str(trials),
                "--seed", str(rng.randrange(2**31)), "--json"]
        deck.groups.append([Op(cls, argv, {
            "packets_sent": form["s"],
            "rate": str(Fraction(form["s"], lp * f)),
            "memory_files": str(Fraction(form["z"] * files, f)),
            "trials": trials,
        })])
    return deck


# ------------------------------------------------------------------ search


def load_minima() -> dict[tuple[int, int, int], int | None]:
    """The recorded exhaustive minima for every (K, F, Z) with K*F <= 16."""
    table = json.loads((HERE / "search_minima.json").read_text(encoding="utf-8"))
    minima = {}
    for row in table["instances"]:
        k, f, z, s = row["k"], row["f"], row["z"], row["minimal_s"]
        if s is not None and s * z < f * (f - z):
            raise ValueError(f"recorded minimum S={s} at {(k, f, z)} is below the rate floor")
        minima[(k, f, z)] = s
    return minima


def search_deck(seed: int) -> Deck:
    """Every instance once, in a seeded order."""
    rng = random.Random(f"search/{seed}")
    items = sorted(load_minima().items())
    rng.shuffle(items)
    groups = [
        [Op("feasible" if s is not None else "exhaust",
            ["search", "--k", str(k), "--f", str(f), "--z", str(z), "--json"],
            {"k": k, "f": f, "z": z, "minimal_s": s})]
        for (k, f, z), s in items
    ]
    return Deck(groups=groups)


DECKS = {"families": families_deck, "protocol": protocol_deck, "search": search_deck}


# ------------------------------------------------------------------ checks


def _header(text: str) -> dict:
    head = text.splitlines()[0].split()
    fields = dict(part.split("=") for part in head[1:])
    return {"k": int(fields["K"]), "lp": int(fields["L'"]), "f": int(fields["F"]),
            "z": int(fields["Z"]), "s": int(fields["S"])}


def check(op: Op, code: int, out: str, workdir: Path) -> str | None:
    """Return why ``op`` produced a wrong answer, or None when it is right."""
    want_code = 1 if op.cls in ("reject", "exhaust") else 0
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    try:
        return _CHECKS[op.cls](op, out, workdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_construct(op: Op, out: str, workdir: Path) -> str | None:
    text = (workdir / op.argv[op.argv.index("--out") + 1]).read_text(encoding="utf-8")
    form = op.expect["header"]
    if _header(text) != form:
        return f"header {_header(text)} != closed form {form}"
    rows = [ln for ln in text.splitlines()[1:] if ln.strip()]
    if len(rows) != form["lp"] * form["f"] or any(len(r.split()) != form["k"] for r in rows):
        return "array body has the wrong shape"
    return None


def _check_valid(op: Op, out: str, workdir: Path) -> str | None:
    want = [f"{name}: ok" for name in CONDITION_ORDER]
    want += ["rate_is_minimal: ok", "verdict: valid"]
    return None if out.splitlines() == want else f"verdict lines {out.splitlines()}"


def _check_reject(op: Op, out: str, workdir: Path) -> str | None:
    lines = out.splitlines()
    failing = [ln.split(":")[0] for ln in lines if ": FAIL" in ln]
    if lines[-1] != "verdict: invalid":
        return f"last line {lines[-1]!r}"
    if not failing or failing[0] != op.expect["condition"]:
        return f"first failure {failing[:1]}, expected {op.expect['condition']}"
    return None


def _check_bounds(op: Op, out: str, workdir: Path) -> str | None:
    j = json.loads(out)
    form = op.expect["header"]
    if j["meets_rate_bound"] is not True:
        return "meets_rate_bound is not true"
    if j["achieved_f"] != form["f"]:
        return f"achieved_f {j['achieved_f']} != {form['f']}"
    if j["rate_bound"] != str(Fraction(form["f"] - form["z"], form["z"])):
        return f"rate_bound {j['rate_bound']} does not match Z={form['z']}"
    if j["achieved_rate"] != str(Fraction(form["s"], form["lp"] * form["f"])):
        return f"achieved_rate {j['achieved_rate']} does not match S={form['s']}"
    return None


def _check_compare(op: Op, out: str, workdir: Path) -> str | None:
    row = out.splitlines()[2].split()
    want = [str(v) for v in op.expect["row"]]
    return None if row == want else f"compare row {row} != {want}"


def _check_simulate(op: Op, out: str, workdir: Path) -> str | None:
    j = json.loads(out)
    if j["success"] is not True or j["failures"]:
        return f"protocol run failed: {j['failures'][:1]}"
    for key, want in op.expect.items():
        if j[key] != want:
            return f"{key} {j[key]!r} != {want!r}"
    return None


def _check_search(op: Op, out: str, workdir: Path) -> str | None:
    j = json.loads(out)
    want = op.expect["minimal_s"]
    if j["minimal_s"] != want or j["feasible"] != (want is not None) or not j["exhausted"]:
        return f"minimal_s {j['minimal_s']} (feasible {j['feasible']}), recorded {want}"
    if want is not None:
        head = _header(j["witness"])
        wanted = {"k": op.expect["k"], "lp": 1, "f": op.expect["f"], "z": op.expect["z"], "s": want}
        if head != wanted:
            return f"witness header {head} != {wanted}"
    return None


_CHECKS = {
    "construct": _check_construct,
    "valid": _check_valid,
    "reject": _check_reject,
    "bounds": _check_bounds,
    "compare": _check_compare,
    "bulk": _check_simulate,
    "demand": _check_simulate,
    "feasible": _check_search,
    "exhaust": _check_search,
}
