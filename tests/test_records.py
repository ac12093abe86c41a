"""The contract of every public record: construction, equality, repr, immutability."""

from __future__ import annotations

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import dpda
from dpda import (
    BoundsReport,
    Caches,
    Coded,
    ConditionCheck,
    Demand,
    Dpda,
    JcmComparison,
    JcmParams,
    Library,
    RateOptimality,
    SearchResult,
    Signal,
    SimReport,
    ValidationReport,
)

_OK = ConditionCheck(True)
_P1 = Dpda(k=1, lp=1, f=1, z=1, s=0, grid=((None,),))

# (class, every field by keyword in constructor order, the fields that may be
# left to their defaults, the expected repr)
RECORDS = [
    (Coded, {"slot": 3, "sender": 1}, (), "Coded(slot=3, sender=1)"),
    (Dpda, {"k": 1, "lp": 1, "f": 1, "z": 1, "s": 0, "grid": ((None,),)}, (),
     "Dpda(k=1, lp=1, f=1, z=1, s=0, grid=((None,),))"),
    (ConditionCheck, {"passed": True, "witness": None}, ("witness",),
     "ConditionCheck(passed=True, witness=None)"),
    (RateOptimality, {"c2prime": True, "c5": False}, (),
     "RateOptimality(c2prime=True, c5=False)"),
    (ValidationReport,
     {"c0": _OK, "c1": _OK, "c2": _OK, "c3": _OK, "c4a": _OK, "c4b": _OK,
      "unique_sender": _OK, "slot_contiguity": _OK, "slot_occurrences": (),
      "row_integer_counts": (0,), "column_star_counts": (1,), "broadcast_counts": (0,),
      "rate_optimality": None}, (),
     "ValidationReport(c0=ConditionCheck(passed=True, witness=None), "
     "c1=ConditionCheck(passed=True, witness=None), "
     "c2=ConditionCheck(passed=True, witness=None), "
     "c3=ConditionCheck(passed=True, witness=None), "
     "c4a=ConditionCheck(passed=True, witness=None), "
     "c4b=ConditionCheck(passed=True, witness=None), "
     "unique_sender=ConditionCheck(passed=True, witness=None), "
     "slot_contiguity=ConditionCheck(passed=True, witness=None), "
     "slot_occurrences=(), row_integer_counts=(0,), column_star_counts=(1,), "
     "broadcast_counts=(0,), rate_optimality=None)"),
    (JcmParams, {"f": 6, "z": 3, "s": 4, "r": Fraction(1)}, (),
     "JcmParams(f=6, z=3, s=4, r=Fraction(1, 1))"),
    (JcmComparison, {"k": 4, "t": 2, "f_ours": 4, "f_jcm": 12, "ratio": Fraction(1, 3),
                     "rate": Fraction(1)}, (),
     "JcmComparison(k=4, t=2, f_ours=4, f_jcm=12, ratio=Fraction(1, 3), "
     "rate=Fraction(1, 1))"),
    (BoundsReport, {"k": 4, "case": "2/K", "rate_bound": Fraction(1), "f_bound": 4,
                    "notes": (), "achieved_rate": None, "achieved_f": None,
                    "meets_rate_bound": None, "meets_f_bound": None},
     ("notes", "achieved_rate", "achieved_f", "meets_rate_bound", "meets_f_bound"),
     "BoundsReport(k=4, case='2/K', rate_bound=Fraction(1, 1), f_bound=4, notes=(), "
     "achieved_rate=None, achieved_f=None, meets_rate_bound=None, meets_f_bound=None)"),
    (SearchResult, {"feasible": True, "minimal_s": 0, "witness": _P1, "nodes_explored": 2,
                    "exhausted": True}, (),
     "SearchResult(feasible=True, minimal_s=0, "
     "witness=Dpda(k=1, lp=1, f=1, z=1, s=0, grid=((None,),)), nodes_explored=2, "
     "exhausted=True)"),
    (Library, {"n": 1, "l": 2, "f": 3, "packet_size": 4, "_ramp": b"\x00\x01",
               "_packets": {}}, ("_packets",),
     "Library(n=1, l=2, f=3, packet_size=4)"),
    (Caches, {"users": (frozenset({0}),)}, (), "Caches(users=(frozenset({0}),))"),
    (Demand, {"d": (0, 1), "b": (1, 0)}, (), "Demand(d=(0, 1), b=(1, 0))"),
    (Signal, {"slot": 0, "sender": 1, "payload": b"\x07", "constituents": ((0, 0, 1),)}, (),
     "Signal(slot=0, sender=1, payload=b'\\x07', constituents=((0, 0, 1),))"),
    (SimReport, {"success": True, "packets_sent": 4, "rate": Fraction(1), "trials": 1,
                 "failures": (), "memory_files": Fraction(1, 2)}, (),
     "SimReport(success=True, packets_sent=4, rate=Fraction(1, 1), trials=1, "
     "failures=(), memory_files=Fraction(1, 2))"),
]
_BY_IDENTITY = (Library, Caches)


@pytest.mark.parametrize("cls, fields, defaulted, expected_repr", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaulted, expected_repr):
    assert cls._defaults.keys() <= set(defaulted)  # slot descriptors are no defaults
    positional = cls(*fields.values())
    keyword = cls(**fields)
    defaults = cls(**{name: v for name, v in fields.items() if name not in defaulted})
    for record in (keyword, defaults):
        assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(positional) == repr(keyword) == repr(defaults) == expected_repr
    if cls in _BY_IDENTITY:
        assert positional == positional and positional != keyword
        assert hash(positional) == object.__hash__(positional)
    else:
        assert positional == keyword == defaults
        assert hash(positional) == hash(keyword) == hash(tuple(fields.values()))
        assert positional != object()
        assert copy.copy(positional) == pickle.loads(pickle.dumps(positional)) == positional
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(positional, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(positional, name)
    with pytest.raises(AttributeError):
        positional.not_a_field = 0
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=0)
    with pytest.raises(TypeError):
        cls()


def test_coded_is_slotted():
    # the records built per cell, per array and per trial carry no
    # per-instance __dict__
    for record in (Coded(0, 0), _P1, Demand((1,), (0,))):
        assert not hasattr(record, "__dict__"), type(record)


def test_record_checks_run_on_every_construction():
    with pytest.raises(ValueError, match="equal length"):
        Demand((0,), (0, 1))
    assert Demand([0], [1]) == Demand((0,), (1,))
    with pytest.raises(ValueError, match="K, L' and F"):
        Dpda(0, 1, 1, 1, 0, ())
    assert Dpda(1, 1, 1, 1, 0, [[None]]).grid == ((None,),)


def test_no_class_is_a_generated_named_tuple():
    # collections.namedtuple (and typing.NamedTuple) eval a generated
    # __new__ when the class is defined, which every run that loads the
    # module would pay for
    for info in pkgutil.iter_modules(dpda.__path__):
        module = importlib.import_module(f"dpda.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert not (issubclass(obj, tuple) and hasattr(obj, "_fields")), obj
