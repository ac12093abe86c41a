"""Exact calculators for rate and packet-number lower bounds.

Every DPDA obeys the rate floor R = S/(L'F) >= F/Z - 1.  At the minimal
rate, the packet number F is itself bounded from below at four memory
ratios:

    Z/F = 1/K       ->  F >= K
    Z/F = 2/K       ->  F >= ceil(K^2/4)   (attainable only for even K)
    Z/F = (K-2)/K   ->  F >= K(K-2) for odd K, K(K-2)/2 for even K
    Z/F = (K-1)/K   ->  F >= K(K-1)

The baseline subset-indexed scheme (``jcm``) always achieves the rate floor
but misses the packet-number floor at ratios 2/K and (K-2)/K; the
comparison helpers quantify the gap as exact rationals.

All arithmetic is arbitrary-precision integer / ``fractions.Fraction``;
no floating point is used anywhere.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import comb
from types import SimpleNamespace

from . import validation
from .core import Dpda, _as_json, _load, _Record

__all__ = [
    "MEMORY_CASES",
    "rate_lower_bound",
    "min_f_bound",
    "applicable_cases",
    "jcm_params",
    "JcmParams",
    "compare_to_jcm",
    "JcmComparison",
    "BoundsReport",
    "bounds_for_case",
    "bounds_for_array",
    "format_table",
]


class _Case(_Record):
    """A memory-ratio case Z/F = numerator(K)/K and its packet-number floor."""

    min_k: int
    numerator: Callable[[int], int]
    f_floor: Callable[[int], int]
    odd_k_note: str | None = None  # reported with the floor when K is odd


_CASES = {
    "1/K": _Case(2, lambda k: 1, lambda k: k),
    "2/K": _Case(2, lambda k: 2, lambda k: -(-(k * k) // 4),
                 "packet-number floor attainable only for an even user count"),
    "(K-2)/K": _Case(3, lambda k: k - 2,
                     lambda k: k * (k - 2) if k % 2 else k * (k - 2) // 2),
    "(K-1)/K": _Case(2, lambda k: k - 1, lambda k: k * (k - 1)),
}
MEMORY_CASES = tuple(_CASES)


def rate_lower_bound(f: int, z: int) -> Fraction:
    """Minimal achievable rate (F - Z)/Z for an array with F rows, Z stars."""
    if z == 0:
        raise ValueError("Z must be positive")
    if not 1 <= z <= f:
        raise ValueError(f"require 1 <= Z <= F, got Z={z}, F={f}")
    return Fraction(f - z, z)


def min_f_bound(k: int, case: str) -> int:
    """Smallest packet number F admitting the minimal rate at a memory ratio.

    ``case`` is one of :data:`MEMORY_CASES`.  The 2/K value is the ceiling
    of K^2/4; for odd K that ceiling is not attainable (see
    :func:`bounds_for_case`, which flags it).  The (K-2)/K case requires
    K >= 3.
    """
    spec = _CASES.get(case)
    if spec is None:
        raise ValueError(f"no packet-number bound for memory ratio case {case!r}")
    if k < spec.min_k:
        raise ValueError(f"{case} case requires K >= {spec.min_k}")
    return spec.f_floor(k)


def applicable_cases(k: int, z: int, f: int) -> tuple[str, ...]:
    """All covered memory-ratio cases matching a positive Z/F for this K.

    At tiny K several cases can coincide numerically (e.g. 2/K equals
    (K-2)/K when K = 4); all matches are returned so callers can take the
    strongest bound.  Cases that need more users than K do not apply.
    """
    ratio = Fraction(z, f)
    return tuple(case for case, spec in _CASES.items()
                 if k >= spec.min_k and 0 < ratio == Fraction(spec.numerator(k), k))


class JcmParams(_Record):
    """Baseline scheme parameters at (K, t): F, Z, S and the rate (K-t)/t."""

    f: int
    z: int
    s: int
    r: Fraction

    to_json = _as_json


def jcm_params(k: int, t: int) -> JcmParams:
    """Exact baseline parameters: F = t*C(K,t), Z = t*C(K-1,t-1),
    S = (t+1)*C(K,t+1), R = (K-t)/t."""
    if not 1 <= t < k:
        raise ValueError(f"t must satisfy 1 <= t < K, got t={t}, K={k}")
    return JcmParams(
        f=t * comb(k, t),
        z=t * comb(k - 1, t - 1),
        s=(t + 1) * comb(k, t + 1),
        r=Fraction(k - t, t),
    )


class JcmComparison(_Record):
    """Packet-number comparison of an array against the baseline at equal
    (K, memory ratio)."""

    k: int
    t: int
    f_ours: int
    f_jcm: int
    ratio: Fraction
    rate: Fraction

    to_json = _as_json


def _validated(p: Dpda) -> None:
    """Raise ``ValueError`` if ``p`` is not a valid array."""
    report = validation.validate(p)
    if not report.valid:
        raise ValueError(f"array is not a valid DPDA (fails {report.first_failure})")


def compare_to_jcm(p: Dpda) -> JcmComparison:
    """Compare a valid array's packet number with the baseline's.

    Requires Z/F = t/K for an integer t in [1, K); otherwise the baseline
    has no instance at this memory ratio and ``ValueError`` is raised.
    """
    _validated(p)
    if (p.k * p.z) % p.f:
        raise ValueError(
            f"memory ratio Z/F = {p.z}/{p.f} is not of the form t/K for K = {p.k}"
        )
    t = p.k * p.z // p.f
    base = jcm_params(p.k, t)
    return JcmComparison(
        k=p.k,
        t=t,
        f_ours=p.f,
        f_jcm=base.f,
        ratio=Fraction(p.f, base.f),
        rate=Fraction(p.s, p.lp * p.f),
    )


class BoundsReport(_Record):
    """Bounds at a (K, memory ratio) point, optionally scored for an array.

    ``case`` is the strongest covered memory-ratio case, or None when the
    ratio is not covered (then ``f_bound`` is None too).  Flags compare the
    achieved values with the bounds by exact equality.
    """

    k: int
    case: str | None
    rate_bound: Fraction
    f_bound: int | None
    notes: tuple[str, ...] = ()
    achieved_rate: Fraction | None = None
    achieved_f: int | None = None
    meets_rate_bound: bool | None = None
    meets_f_bound: bool | None = None

    def to_json(self) -> dict:
        j = _as_json(self)
        if self.f_bound is None:
            j["f_bound"] = "not covered"
        return j


def bounds_for_case(k: int, case: str) -> BoundsReport:
    """Rate and packet-number bounds at one covered memory-ratio case.

    At Z/F = t/K the rate floor (F - Z)/Z is (K - t)/t, ``rate_lower_bound(K, t)``.
    """
    f_bound = min_f_bound(k, case)  # checks the case and K first: a refusal names the case
    spec = _CASES[case]
    return BoundsReport(
        k=k,
        case=case,
        rate_bound=rate_lower_bound(k, spec.numerator(k)),
        f_bound=f_bound,
        notes=(spec.odd_k_note,) if spec.odd_k_note and k % 2 else (),
    )


def bounds_for_array(p: Dpda) -> BoundsReport:
    """Score a valid array against :func:`bounds_for_case` at the strongest
    (largest packet-number floor) covered case at its (K, Z/F), or against
    ``rate_lower_bound(F, Z)`` and no floor when no case covers it."""
    _validated(p)
    cases = applicable_cases(p.k, p.z, p.f)
    base = (bounds_for_case(p.k, max((_CASES[c].f_floor(p.k), c) for c in cases)[1]) if cases
            else BoundsReport(p.k, None, rate_lower_bound(p.f, p.z), None))
    achieved_rate = Fraction(p.s, p.lp * p.f)
    return BoundsReport(
        p.k, base.case, base.rate_bound, base.f_bound, base.notes,
        achieved_rate=achieved_rate,
        achieved_f=p.f,
        meets_rate_bound=achieved_rate == base.rate_bound,
        meets_f_bound=None if base.f_bound is None else p.f == base.f_bound,
    )


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Aligned-column text table; all cells rendered with ``str``."""
    cells = [[str(h) for h in headers]] + [[str(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _cmd_bounds(args: SimpleNamespace) -> tuple[str | dict, int]:
    if args.from_path is not None:
        report = bounds_for_array(_load(args.from_path))
    else:
        if args.k is None or args.case is None:
            raise ValueError("provide --k and --case, or --from FILE")
        report = bounds_for_case(args.k, args.case)
    j = report.to_json()
    if args.json:
        return j, 0
    rows = [[key, j[key]] for key in j if key != "notes" and j[key] is not None]
    text = format_table(["field", "value"], rows)
    return text + "".join(f"note: {note}\n" for note in report.notes), 0


def _cmd_compare(args: SimpleNamespace) -> tuple[str | dict, int]:
    j = compare_to_jcm(_load(args.path)).to_json()
    return j if args.json else format_table(list(j), [list(j.values())]), 0
