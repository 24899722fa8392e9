"""The record classes: constructors, immutability, equality, hash and repr."""

import inspect

import numpy as np
import pytest

from rotn.circle import VisitSet
from rotn.example import ExampleReport, FormulaCheck
from rotn.exactreal import HALF, ONE, ZERO, CertifiedFloat, SurdReal, parse_cf
from rotn.foliation import LeafTrace
from rotn.harness import ExperimentConfig
from rotn.renorm import BoundsCheck, ExactInterval, RenormLevel, ReturnRecord, base_level
from rotn.scan import OrbitScan
from rotn.words import EMPTY

CF = parse_cf("[0;5,(6)]")
LEVEL = base_level(CF)
ROW = FormulaCheck("M+(2k)=M+(2k-1)", 2, 1, 1)

# each class, one valid positional argument list, and the defaults of its
# constructor's parameters (every parameter is positional-or-keyword)
CASES = [
    (CertifiedFloat, (0.5, 2.0 ** -53), {}),
    (ExactInterval, (ZERO, ONE), {}),
    (RenormLevel, (1, LEVEL.interval, LEVEL.beta, CF, 2, LEVEL.f_plus, LEVEL.f_minus,
                   LEVEL.f_zero, LEVEL.base_alpha), {}),
    (BoundsCheck, (2, "max_plus >= 1", 3, True), {}),
    (ReturnRecord, (3, (1, -1, 1), SurdReal(1, 1, 4, 5)), {}),
    (FormulaCheck, ("M0(2k)=M+(2k-1)", 2, 1, 1), {}),
    (ExampleReport, (CF, (ONE + CF.value) / 2, (ROW,), EMPTY, (-1,)), {}),
    (ExperimentConfig,
     ("density", "[0;7,(8,10)]", 4, 10, 1, 2, 3, 100, 7, None, None, 5, False, "g.csv",
      "exact-only"),
     {"alpha": "[0;5,(6)]", "depth": 0, "N": 0, "m": 0, "k": 0, "k_max": 0,
      "samples": 0, "seed": 0, "ray": None, "through": None, "level": 0,
      "backward": False, "out": None, "precision": "certified-fast"}),
    (OrbitScan,
     (HALF, CF.value, 3, 1, np.zeros(4), np.ones(4, np.int8),
      np.zeros(4, np.int64), np.zeros(4, bool), 0.0), {}),
    (VisitSet, (np.arange(3), np.zeros(3), 0.0, 0), {}),
    (LeafTrace, ("ray 0", 1, 1, np.zeros(3), np.arange(3), 1e-15),
     {"radius_bound": 0.0}),
]
MUTABLE = (OrbitScan, VisitSet, LeafTrace)
IDS = [cls.__name__ for cls, _, _ in CASES]


def _fields(record):
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("cls, args, defaults", CASES, ids=IDS)
def test_record_contract(cls, args, defaults):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls._fields)
    assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)

    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert _fields(by_position) == _fields(by_keyword) == args
    required = len(args) - len(defaults)
    assert _fields(cls(*args[:required])) == args[:required] + tuple(defaults.values())

    assert by_position == by_keyword and not by_position != by_keyword
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(by_position)
        # a numpy-path record is rebound in place, as foliation does with sums
        name = cls._fields[0]
        setattr(by_position, name, args[0])
        assert getattr(by_position, name) is args[0]
    else:
        assert hash(by_position) == hash(by_keyword)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(by_position, name, args[0])
            with pytest.raises(AttributeError):
                delattr(by_position, name)
        with pytest.raises(AttributeError):
            by_position.undeclared = 1
        assert _fields(by_position) == args

    twin = type("Twin", (cls,), {"__slots__": ()})(*args)
    assert by_position != twin and twin != by_position
    assert by_position != args
    assert repr(by_position).startswith(cls.__name__ + "(")


def test_config_constructor_keeps_its_checks_and_normal_form():
    assert ExperimentConfig("tower", " [ 0 ; 5 , ( 6 ) ] ").alpha == "[0;5,(6)]"
    assert ExperimentConfig("tower").precision == "exact-only"
    assert ExperimentConfig("example", m=3).alpha == "[0;7,(8)]"
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig("juggle")
    with pytest.raises(ValueError, match="samples must be >= 0"):
        ExperimentConfig("density", samples=-1)
