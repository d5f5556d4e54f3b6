"""The value classes behave as values, and importing them costs no code
generation.

Each of the nine classes compares equal only to an instance of its own
class with equal fields, hashes as the tuple of its fields (so sets and
dicts of ideals keep their order), prints as ``Name(field=value, ...)``,
refuses assignment and deletion, and survives pickle and deepcopy.
VerificationReport is the one mutable class: its lists grow in place,
and it has no hash.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from borelpoints import (
    CHAR0,
    Characteristic,
    ClassificationVerdict,
    GotzmannPartition,
    HilbertData,
    MacaulayPartition,
    MonomialIdeal,
    SchemeCoordinates,
    TreeNode,
    VerificationReport,
)

SRC = Path(__file__).resolve().parents[1] / "src"

P10 = GotzmannPartition((1, 0))


def _build():
    """Fresh instances of every class, by name: (instance, its fields by
    name in order, its repr).  Each call builds new objects, so equal
    values are never the same object."""
    p10 = GotzmannPartition((1, 0))
    coords = SchemeCoordinates(p10, 3, Characteristic(2))
    leaf = TreeNode(coords, 2, "(i)(a)", None, ())
    coords_repr = (
        "SchemeCoordinates(partition=GotzmannPartition(parts=(1, 0)), n=3, "
        "char=Characteristic(value=2))"
    )
    cases = {
        Characteristic: ({"value": 3}, "Characteristic(value=3)"),
        GotzmannPartition: ({"parts": (2, 1)}, "GotzmannPartition(parts=(2, 1))"),
        MacaulayPartition: ({"parts": (2, 1)}, "MacaulayPartition(parts=(2, 1))"),
        MonomialIdeal: (
            {"num_vars": 3, "gens": ((1, 0, 0), (0, 2, 0))},
            "MonomialIdeal(num_vars=3, gens=((1, 0, 0), (0, 2, 0)))",
        ),
        HilbertData: (
            {"polynomial": p10, "stabilization_degree": 1},
            "HilbertData(polynomial=GotzmannPartition(parts=(1, 0)), stabilization_degree=1)",
        ),
        SchemeCoordinates: ({"partition": p10, "n": 3, "char": Characteristic(2)}, coords_repr),
        ClassificationVerdict: (
            {"predicted_count": 2, "matched_clause": "(i)(a)"},
            "ClassificationVerdict(predicted_count=2, matched_clause='(i)(a)')",
        ),
        TreeNode: (
            {
                "coords": coords,
                "predicted_count": 3,
                "matched_clause": None,
                "verified_count": 3,
                "children": (leaf,),
            },
            f"TreeNode(coords={coords_repr}, predicted_count=3, matched_clause=None, "
            f"verified_count=3, children=(TreeNode(coords={coords_repr}, predicted_count=2, "
            "matched_clause='(i)(a)', verified_count=None, children=()),))",
        ),
        VerificationReport: (
            {"cells": [{"n": 2}], "discrepancies": []},
            "VerificationReport(cells=[{'n': 2}], discrepancies=[])",
        ),
    }
    return {
        cls.__name__: (cls(*fields.values()), fields, text)
        for cls, (fields, text) in cases.items()
    }


NAMES = list(_build())
FROZEN = [name for name in NAMES if name != "VerificationReport"]


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    value, fields, _ = _build()[name]
    twin = _build()[name][0]
    assert value is not twin
    assert value == twin and not value != twin
    assert value == type(value)(**fields)
    fields = tuple(fields.values())
    assert value != fields and fields != value
    for other_name, (other, *_) in _build().items():
        if other_name != name:
            assert value != other, other_name


def test_equality_is_by_class_not_by_fields():
    # both classes have the one field parts, equal here
    assert GotzmannPartition((2, 1)) != MacaulayPartition((2, 1))
    assert MonomialIdeal(3, ()) != MonomialIdeal(4, ())
    assert Characteristic(0) == CHAR0 != Characteristic(2)


@pytest.mark.parametrize("name", FROZEN)
def test_hash_is_the_hash_of_the_field_tuple(name):
    value, fields, _ = _build()[name]
    assert hash(value) == hash(tuple(fields.values()))
    assert hash(value) == hash(_build()[name][0])
    assert {value, _build()[name][0]} == {value}


def test_sets_of_ideals_keep_their_order():
    ideals = [MonomialIdeal(3, ((i, 0, 0), (0, j, 0))) for i in range(1, 4) for j in range(1, 4)]
    as_tuples = [(ideal.num_vars, ideal.gens) for ideal in ideals]
    assert [(i.num_vars, i.gens) for i in frozenset(ideals)] == list(frozenset(as_tuples))
    assert [(i.num_vars, i.gens) for i in set(ideals)] == list(set(as_tuples))


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    value, _, text = _build()[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", FROZEN)
def test_immutable(name):
    value, fields, _ = _build()[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == _build()[name][0]


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy(name):
    value = _build()[name][0]
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is type(value)
        assert loaded == value
    copied = copy.deepcopy(value)
    assert type(copied) is type(value) and copied == value
    assert copy.copy(value) == value


def test_verification_report_is_mutable_and_unhashable():
    report = VerificationReport()
    assert report.cells == [] and report.discrepancies == []
    assert report.ok
    report.cells.append({"n": 2})
    report.discrepancies.append({"n": 2, "problems": ["x"]})
    assert report == VerificationReport([{"n": 2}], [{"n": 2, "problems": ["x"]}])
    assert not report.ok
    # each report starts with lists of its own
    assert VerificationReport().cells == []
    report.cells = []
    assert report.cells == []
    with pytest.raises(TypeError):
        hash(report)
    copied = copy.deepcopy(report)
    copied.discrepancies.clear()
    assert copied != report and not report.ok


def test_validation_survives():
    with pytest.raises(ValueError, match="characteristic must be 0 or a prime, got 4"):
        Characteristic(4)
    with pytest.raises(ValueError, match="ambient dimension must exceed"):
        SchemeCoordinates(P10, 1)
    with pytest.raises(ValueError, match="generator length does not match num_vars"):
        MonomialIdeal(3, ((1, 0),))
    assert GotzmannPartition([1.0, 0]).parts == (1, 0)
    assert type(GotzmannPartition([1.0, 0]).parts[0]) is int
    assert SchemeCoordinates(P10, 3).char == CHAR0


def test_import_generates_no_code():
    # the package and its CLI build their classes without dataclasses,
    # which would also load inspect: both cost start-up time in every
    # process
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import borelpoints, borelpoints.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
