"""The contract of every public record: construction, equality, repr,
immutability and JSON form."""

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
    Coded,
    ConditionCheck,
    Demand,
    Dpda,
    JcmComparison,
    JcmParams,
    RateOptimality,
    SearchResult,
    SimReport,
    ValidationReport,
)
from dpda.core import _Record

from sim_reference import Caches, Library, Signal

_OK = ConditionCheck(True)
_P1 = Dpda(k=1, lp=1, f=1, z=1, s=0, grid=((None,),))
_A, _B, _C, _D = (Coded(s, s) for s in range(4))
_P4_GRID = ((_C, None, None, _B), (None, _C, None, _A), (_D, None, _B, None),
            (None, _D, _A, None))
_P1_TEXT = "DPDA K=1 L'=1 F=1 Z=1 S=0\n*\n"
_NO_CHECK = {"passed": True, "witness": None}
_FAILURE = {"trial": 1, "user": 0,
            "error": "slot 0 mixes packet (0, 1, 0) twice; array is not decodable"}

# (class, every field by keyword in constructor order, the fields that may be
# left to their defaults, the expected repr, the expected to_json() document
# or None for a record without to_json)
RECORDS = [
    (Coded, {"slot": 3, "sender": 1}, (), "Coded(slot=3, sender=1)", None),
    (Dpda, {"k": 1, "lp": 1, "f": 1, "z": 1, "s": 0, "grid": ((None,),)}, (),
     "Dpda(k=1, lp=1, f=1, z=1, s=0, grid=((None,),))", None),
    (ConditionCheck, {"passed": True, "witness": None}, ("witness",),
     "ConditionCheck(passed=True, witness=None)", None),
    (RateOptimality, {"c2prime": True, "c5": False}, (),
     "RateOptimality(c2prime=True, c5=False)",
     {"c2prime": True, "c5": False, "rate_is_minimal": False}),
    (ValidationReport,
     {"c0": _OK, "c1": ConditionCheck(False, (0, 2)), "c2": _OK, "c3": _OK, "c4a": _OK,
      "c4b": _OK, "unique_sender": _OK, "slot_contiguity": _OK, "slot_occurrences": (),
      "row_integer_counts": (0,), "column_star_counts": (1,), "broadcast_counts": (0,),
      "rate_optimality": RateOptimality(True, True)}, (),
     "ValidationReport(c0=ConditionCheck(passed=True, witness=None), "
     "c1=ConditionCheck(passed=False, witness=(0, 2)), "
     "c2=ConditionCheck(passed=True, witness=None), "
     "c3=ConditionCheck(passed=True, witness=None), "
     "c4a=ConditionCheck(passed=True, witness=None), "
     "c4b=ConditionCheck(passed=True, witness=None), "
     "unique_sender=ConditionCheck(passed=True, witness=None), "
     "slot_contiguity=ConditionCheck(passed=True, witness=None), "
     "slot_occurrences=(), row_integer_counts=(0,), column_star_counts=(1,), "
     "broadcast_counts=(0,), rate_optimality=RateOptimality(c2prime=True, c5=True))",
     {"c0": _NO_CHECK, "c1": {"passed": False, "witness": [0, 2]}, "c2": _NO_CHECK,
      "c3": _NO_CHECK, "c4a": _NO_CHECK, "c4b": _NO_CHECK, "unique_sender": _NO_CHECK,
      "slot_contiguity": _NO_CHECK, "valid": False,
      "diagnostics": {"slot_occurrences": [], "row_integer_counts": [0],
                      "column_star_counts": [1], "broadcast_counts": [0]}}),
    (JcmParams, {"f": 6, "z": 3, "s": 4, "r": Fraction(1)}, (),
     "JcmParams(f=6, z=3, s=4, r=Fraction(1, 1))", {"f": 6, "z": 3, "s": 4, "r": "1"}),
    (JcmComparison, {"k": 4, "t": 2, "f_ours": 4, "f_jcm": 12, "ratio": Fraction(1, 3),
                     "rate": Fraction(1)}, (),
     "JcmComparison(k=4, t=2, f_ours=4, f_jcm=12, ratio=Fraction(1, 3), "
     "rate=Fraction(1, 1))",
     {"k": 4, "t": 2, "f_ours": 4, "f_jcm": 12, "ratio": "1/3", "rate": "1"}),
    (BoundsReport, {"k": 4, "case": "2/K", "rate_bound": Fraction(1), "f_bound": 4,
                    "notes": (), "achieved_rate": None, "achieved_f": None,
                    "meets_rate_bound": None, "meets_f_bound": None},
     ("notes", "achieved_rate", "achieved_f", "meets_rate_bound", "meets_f_bound"),
     "BoundsReport(k=4, case='2/K', rate_bound=Fraction(1, 1), f_bound=4, notes=(), "
     "achieved_rate=None, achieved_f=None, meets_rate_bound=None, meets_f_bound=None)",
     {"k": 4, "case": "2/K", "rate_bound": "1", "f_bound": 4, "notes": [],
      "achieved_rate": None, "achieved_f": None, "meets_rate_bound": None,
      "meets_f_bound": None}),
    (SearchResult, {"feasible": True, "minimal_s": 0, "witness": _P1, "nodes_explored": 2,
                    "exhausted": True}, (),
     "SearchResult(feasible=True, minimal_s=0, "
     "witness=Dpda(k=1, lp=1, f=1, z=1, s=0, grid=((None,),)), nodes_explored=2, "
     "exhausted=True)",
     {"feasible": True, "minimal_s": 0, "witness": _P1_TEXT, "nodes_explored": 2,
      "exhausted": True}),
    # the protocol reference's library and caches, records on the same base
    (Library, {"n": 1, "l": 2, "f": 3, "packet_size": 4, "_ramp": b"\x00\x01"}, (),
     "Library(n=1, l=2, f=3, packet_size=4)", None),
    (Caches, {"users": (frozenset({0}),)}, (), "Caches(users=(frozenset({0}),))", None),
    (Demand, {"d": (0, 1), "b": (1, 0)}, (), "Demand(d=(0, 1), b=(1, 0))", None),
    # the protocol reference's signal, a record on the same base
    (Signal, {"slot": 0, "sender": 1, "payload": b"\x07", "constituents": ((0, 0, 1),)}, (),
     "Signal(slot=0, sender=1, payload=b'\\x07', constituents=((0, 0, 1),))", None),
    (SimReport, {"success": True, "packets_sent": 4, "trials": 1, "failures": ()}, (),
     "SimReport(success=True, packets_sent=4, trials=1, failures=())",
     {"success": True, "packets_sent": 4, "trials": 1, "failures": []}),
    # a failure is a dict, so this report's field values are not hashable
    (SimReport, {"success": False, "packets_sent": 4, "trials": 2, "failures": (_FAILURE,)},
     (),
     "SimReport(success=False, packets_sent=4, trials=2, "
     "failures=({'trial': 1, 'user': 0, "
     "'error': 'slot 0 mixes packet (0, 1, 0) twice; array is not decodable'},))",
     {"success": False, "packets_sent": 4, "trials": 2, "failures": [_FAILURE]}),
    # P4, an array with coded cells: its slot index is a slot, not a field
    (Dpda, {"k": 4, "lp": 1, "f": 4, "z": 2, "s": 4, "grid": _P4_GRID}, (),
     "Dpda(k=4, lp=1, f=4, z=2, s=4, grid=((Coded(slot=2, sender=2), None, None, "
     "Coded(slot=1, sender=1)), (None, Coded(slot=2, sender=2), None, "
     "Coded(slot=0, sender=0)), (Coded(slot=3, sender=3), None, Coded(slot=1, sender=1), "
     "None), (None, Coded(slot=3, sender=3), Coded(slot=0, sender=0), None)))", None),
]
_IDS = [r[0].__name__ for r in RECORDS[:-2]] + ["SimReport-failures", "Dpda-coded"]

# the JSON forms a RECORDS row leaves out: (id, record, its to_json() document)
MORE_JSON = [
    ("BoundsReport-not-covered",
     BoundsReport(k=3, case=None, rate_bound=Fraction(3, 2), f_bound=None,
                  notes=("a note",), achieved_rate=Fraction(2), achieved_f=5,
                  meets_rate_bound=False, meets_f_bound=None),
     {"k": 3, "case": None, "rate_bound": "3/2", "f_bound": "not covered",
      "notes": ["a note"], "achieved_rate": "2", "achieved_f": 5,
      "meets_rate_bound": False, "meets_f_bound": None}),
    ("SearchResult-no-witness",
     SearchResult(feasible=False, minimal_s=None, witness=None, nodes_explored=9,
                  exhausted=True),
     {"feasible": False, "minimal_s": None, "witness": None, "nodes_explored": 9,
      "exhausted": True}),
]


@pytest.mark.parametrize("cls, fields, defaulted, expected_repr, expected_json", RECORDS,
                         ids=_IDS)
def test_record_contract(cls, fields, defaulted, expected_repr, expected_json):
    assert cls._defaults.keys() <= set(defaulted)  # slot descriptors are no defaults
    positional = cls(*fields.values())
    keyword = cls(**fields)
    defaults = cls(**{name: v for name, v in fields.items() if name not in defaulted})
    for record in (keyword, defaults):
        assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(positional) == repr(keyword) == repr(defaults) == expected_repr
    assert positional == keyword == defaults
    assert hash(positional) == hash(keyword) == hash(copy.deepcopy(positional))
    if cls.__hash__ is _Record.__hash__:  # the base hashes the field values
        assert hash(positional) == hash(tuple(fields.values()))
    assert positional != object()
    assert copy.copy(positional) == pickle.loads(pickle.dumps(positional)) == positional
    # a slot that is no field (Dpda's slot index) is rebuilt equal by every clone
    extra = [name for name in cls.__slots__ if name not in cls._fields]
    for clone in (copy.copy(positional), copy.deepcopy(positional),
                  pickle.loads(pickle.dumps(positional))):
        assert [getattr(clone, n) for n in extra] == [getattr(positional, n) for n in extra]
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


@pytest.mark.parametrize("record, expected", [
    *((cls(**fields), expected) for cls, fields, _, _, expected in RECORDS),
    *((record, expected) for _, record, expected in MORE_JSON),
], ids=_IDS + [case[0] for case in MORE_JSON])
def test_record_json(record, expected):
    # the document each report's --json output is built from; the other
    # records have no JSON form of their own
    if expected is None:
        assert not hasattr(record, "to_json")
    else:
        assert record.to_json() == expected


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
