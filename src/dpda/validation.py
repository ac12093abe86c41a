"""Witnessed condition checks for placement delivery arrays.

A structurally well-formed array is a DPDA when it satisfies:

* C0 - in every column, the star pattern repeats with period F down the
  L' bands;
* C1 - every column of the first F rows holds exactly Z stars;
* C2 - every slot id in [0, S) occurs at least once;
* C3 - the row of every coded entry holds a star in the sender's column;
* C4a - equal-slot entries lie in pairwise distinct rows and columns;
* C4b - for equal-slot entries at (j1,k1) and (j2,k2), both crossing cells
  (j1,k2) and (j2,k1) are stars.

Two housekeeping checks the delivery protocol relies on are reported
too: one sender per slot, which :class:`~dpda.core.Dpda` enforces when it
is built, and slot ids contiguous from 0.

:func:`validate` is the one entry point.  It makes one walk, in id order,
over the slot index that ``Dpda`` builds where it checks senders (the row
star masks, C2, C3, C4, contiguity, the occurrence and broadcast counts)
and one transpose (C1, the column star counts), and derives from them
every verdict, witness and counting diagnostic, plus the rate-optimality
verdicts of a valid array.
All arithmetic is exact; a non-integer target makes a verdict false, never
rounded.
"""

from __future__ import annotations

from itertools import combinations
from types import SimpleNamespace

from .core import Dpda, _as_json, _load, _Record

__all__ = [
    "CONDITION_ORDER",
    "ConditionCheck",
    "ValidationReport",
    "RateOptimality",
    "validate",
]


class ConditionCheck(_Record):
    """Verdict for one condition; ``witness`` is the first violation found."""

    passed: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.passed


_OK = ConditionCheck(True)


def _c0(p: Dpda, masks: tuple[int, ...]) -> ConditionCheck:
    diff = [0] * p.f  # bit c of diff[h]: column c differs from band 0 at h
    for r in range(p.f, len(masks)):
        diff[r % p.f] |= masks[r] ^ masks[r % p.f]
    if not any(diff):
        return _OK
    c = min((d & -d).bit_length() for d in diff if d) - 1
    h = next(h for h, d in enumerate(diff) if d >> c & 1)
    r = next(r for r in range(h, len(masks), p.f) if not masks[r] >> c & 1)
    return ConditionCheck(False, (r, c))


def _c1(p: Dpda, stars: tuple[int, ...]) -> ConditionCheck:
    for c, n in enumerate(stars):
        if n != p.z:
            return ConditionCheck(False, (c, n))
    return _OK


def _slot_walk(p: Dpda) -> tuple:
    """One walk over the array's slot index in id order: each row's star
    mask, C2, C3, C4a, C4b, contiguity, the occurrence and the broadcast
    counts.  A row's mask starts full and each coded cell's bit is XORed
    out.  C3's witness is its row-major least failing cell, the least of
    each slot's first.  C4 stops once both have failed.  The used ids have
    a gap iff the lowest missing id is below their number."""
    grid, index = p.grid, p._cells
    masks = [(1 << p.k) - 1] * p.rows
    counts = [0] * p.k
    c3 = c4a = c4b = _OK
    for s, occ in enumerate(index):
        if not occ:
            continue
        r0, c0 = occ[0]
        sender = grid[r0][c0].sender
        counts[sender] += 1
        bad = None
        for r, c in occ:
            masks[r] ^= 1 << c
            if bad is None and grid[r][sender] is not None:
                bad = (r, c)
        if bad is not None and (c3.passed or bad < c3.witness[:2]):
            c3 = ConditionCheck(False, (*bad, s, sender))
        if not (c4a.passed or c4b.passed):
            continue
        for (r1, c1), (r2, c2) in combinations(occ, 2):
            if r1 == r2 or c1 == c2:
                if c4a.passed:
                    c4a = ConditionCheck(False, (s, r1, c1, r2, c2))
            elif grid[r1][c2] is not None or grid[r2][c1] is not None:
                if c4b.passed:
                    c4b = ConditionCheck(False, (s, r1, c1, r2, c2))
    occurrences = tuple(map(len, index))
    missing = occurrences.index(0) if 0 in occurrences else p.s
    c2 = ConditionCheck(False, (missing,)) if missing < p.s else _OK
    contiguity = c2 if missing < sum(counts) else _OK
    return tuple(masks), c2, c3, c4a, c4b, contiguity, occurrences, tuple(counts)


class RateOptimality(_Record):
    """Verdicts for the two conditions characterising the minimal rate F/Z - 1.

    ``c2prime`` holds iff every slot occurs exactly K*Z/F times, ``c5`` iff
    every row holds exactly K*Z/F stars; when K*Z is not divisible by F both
    are false.
    """

    c2prime: bool
    c5: bool

    @property
    def rate_is_minimal(self) -> bool:
        return self.c2prime and self.c5

    def to_json(self) -> dict:
        return {**_as_json(self), "rate_is_minimal": self.rate_is_minimal}


class ValidationReport(_Record):
    """Per-condition verdicts plus the counting diagnostics of an array.

    The field order is the condition order: the fields before
    ``slot_occurrences`` are the conditions, and :data:`CONDITION_ORDER` is
    read from them.  Each witness is the first violation found:

    * ``c0`` - (row, column) of a non-star cell whose in-band row is starred
      in another band: lowest column first, then in-band row, then band;
    * ``c1`` - (column, observed star count);
    * ``c2`` - (missing slot,);
    * ``c3`` - (row, column, slot, sender) of the first coded entry whose
      row has no star in its sender's column;
    * ``c4a`` - (slot, r1, c1, r2, c2): two equal-slot entries sharing a row
      or a column;
    * ``c4b`` - (slot, r1, c1, r2, c2): two equal-slot entries whose 2x2
      crossing cells are not both stars;
    * ``unique_sender`` - one sender per slot.  Enforced by :class:`Dpda`,
      so it always passes on a parsed or built array;
    * ``slot_contiguity`` - (gap id,): used slot ids must form a gap-free
      range starting at 0.  It fails only together with ``c2``, with the
      same witness.

    ``slot_occurrences[s]`` is the number of cells carrying slot ``s``;
    ``row_integer_counts[i]`` the number of coded entries in row ``i``;
    ``column_star_counts[c]`` the stars in column ``c`` over all rows;
    ``broadcast_counts[k]`` the number of distinct slots sent by user ``k``.
    ``rate_optimality`` holds the minimal-rate verdicts, or None when the
    array is invalid.
    """

    c0: ConditionCheck
    c1: ConditionCheck
    c2: ConditionCheck
    c3: ConditionCheck
    c4a: ConditionCheck
    c4b: ConditionCheck
    unique_sender: ConditionCheck
    slot_contiguity: ConditionCheck
    slot_occurrences: tuple[int, ...]
    row_integer_counts: tuple[int, ...]
    column_star_counts: tuple[int, ...]
    broadcast_counts: tuple[int, ...]
    rate_optimality: RateOptimality | None

    @property
    def valid(self) -> bool:
        return all(getattr(self, name).passed for name in CONDITION_ORDER)

    @property
    def first_failure(self) -> str | None:
        for name in CONDITION_ORDER:
            if not getattr(self, name).passed:
                return name
        return None

    def to_json(self) -> dict:
        j = _as_json(self)
        checks = {name: j.pop(name) for name in CONDITION_ORDER}
        del j["rate_optimality"]
        return {**checks, "valid": self.valid, "diagnostics": j}


CONDITION_ORDER = ValidationReport._fields[:ValidationReport._fields.index("slot_occurrences")]


def _rate_optimality(
    p: Dpda, occurrences: tuple[int, ...], row_ints: tuple[int, ...]
) -> RateOptimality:
    if (p.k * p.z) % p.f:
        return RateOptimality(False, False)
    target = p.k * p.z // p.f
    return RateOptimality(
        c2prime=all(n == target for n in occurrences),
        c5=all(p.k - t == target for t in row_ints),
    )


def _assert_laws(p: Dpda, opt: RateOptimality, counts: tuple[int, ...]) -> None:
    """The paper's laws on a valid array; a violation means a checker bug."""
    floor = p.lp * p.f * (p.f - p.z)
    if p.s * p.z < floor:
        raise AssertionError(
            f"rate bound S*Z >= L'*F*(F-Z) violated on a validated array "
            f"({p.s}*{p.z} < {p.lp}*{p.f}*({p.f}-{p.z})); condition checks are buggy"
        )
    if not opt.rate_is_minimal:
        return
    if p.s * p.z != floor:
        raise AssertionError(
            "rate-optimal array must satisfy S*Z == L'*F*(F-Z) exactly; "
            f"got {p.s}*{p.z} != {p.lp}*{p.f}*({p.f}-{p.z})"
        )
    for k, m_k in enumerate(counts):
        if m_k * p.k * p.z != floor:
            raise AssertionError(
                f"user {k} broadcasts {m_k} slots, violating "
                f"m_k*K*Z == L'*F*(F-Z) on a rate-optimal array"
            )


def validate(p: Dpda) -> ValidationReport:
    """Check every condition and fill the counting diagnostics.

    On a valid array the report also carries the rate-optimality verdicts,
    and three exact laws must hold: the rate floor S*Z >= L'*F*(F-Z); on a
    rate-minimal array, S*Z == L'*F*(F-Z); and every user broadcasting
    equally often, m_k*K*Z == L'*F*(F-Z).  A violation would mean a checker
    bug and raises ``AssertionError``.
    """
    masks, c2, c3, c4a, c4b, contiguity, occurrences, counts = _slot_walk(p)
    cols = tuple(zip(*p.grid))  # a Coded entry is always truthy, a star never
    col_stars = tuple(len(col) - sum(map(bool, col)) for col in cols)
    band0 = col_stars if p.lp == 1 else tuple(p.f - sum(map(bool, c[:p.f])) for c in cols)
    # the unique sender is _OK: Dpda refuses a slot with a second sender
    checks = (_c0(p, masks), _c1(p, band0), c2, c3, c4a, c4b, _OK, contiguity)
    row_ints = tuple(p.k - m.bit_count() for m in masks)
    opt = None
    if all(checks):
        opt = _rate_optimality(p, occurrences, row_ints)
        _assert_laws(p, opt, counts)
    return ValidationReport(
        *checks,
        slot_occurrences=occurrences,
        row_integer_counts=row_ints,
        column_star_counts=col_stars,
        broadcast_counts=counts,
        rate_optimality=opt,
    )


def _cmd_validate(args: SimpleNamespace) -> tuple[str | dict, int]:
    report = validate(_load(args.path))
    opt = report.rate_optimality if args.optimal else None
    ok = opt.rate_is_minimal if opt is not None else report.valid
    code = 0 if ok else 1
    if args.json:
        payload: dict = {"validation": report.to_json()}
        if opt is not None:
            payload["rate_optimality"] = opt.to_json()
            payload["broadcast_counts"] = list(report.broadcast_counts)
        elif args.optimal:
            payload["rate_optimality"] = None
        return payload, code
    checks = [(name, getattr(report, name)) for name in CONDITION_ORDER]
    lines = [f"{name}: {'ok' if check.passed else 'FAIL ' + repr(check.witness)}"
             for name, check in checks]
    if args.optimal:
        lines.append("rate_is_minimal: skipped (invalid array)" if opt is None
                     else f"rate_is_minimal: {'ok' if opt.rate_is_minimal else 'FAIL'}")
    lines.append(f"verdict: {'valid' if ok else 'invalid'}")
    return "\n".join(lines) + "\n", code
