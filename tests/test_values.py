"""Value semantics of the six public value classes.

Each is immutable, equal only to an instance of its own class with equal
fields, hashes like its fields, has a fixed repr, and survives copy,
deepcopy and pickle as an equal object.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from curvejac import (
    ConeVerdict,
    MinimaReport,
    NefDecomposition,
    NSClass,
    PointClass,
    ZhangAudit,
    classify,
    cone_minimum,
    nef_decomposition,
    standard_polarization,
    zhang_audit,
)

# class -> (a function building one instance, its fields in order, its repr).
CASES = {
    NSClass: (
        lambda: NSClass(2, 1, Fraction(1, 2), -3),
        ("genus", "a", "b", "c"),
        "NSClass(genus=2, a=1, b=1/2, c=-3)",
    ),
    PointClass: (
        lambda: PointClass(NSClass(2, 8, 1, 2)),
        ("cls",),
        "PointClass(cls=NSClass(genus=2, a=8, b=1, c=2))",
    ),
    ConeVerdict: (
        lambda: classify(NSClass(2, 3, 1, 1)),
        ("region", "is_ample", "is_nef", "is_big", "is_psef", "defect"),
        "ConeVerdict(region=<Region.INTERIOR: 'interior'>, is_ample=True, "
        "is_nef=True, is_big=True, is_psef=True, defect=Fraction(1, 1))",
    ),
    NefDecomposition: (
        lambda: nef_decomposition(NSClass(2, 3, 1, 1)),
        ("boundary_part", "alpha_excess"),
        "NefDecomposition(boundary_part=NSClass(genus=2, a=2, b=1, c=1), "
        "alpha_excess=Fraction(1, 1))",
    ),
    MinimaReport: (
        lambda: cone_minimum(standard_polarization(2)),
        ("infimum", "s_star", "t_star", "attained_by_witness", "witness"),
        "MinimaReport(infimum=Fraction(3, 2), s_star=Fraction(1, 8), "
        "t_star=Fraction(1, 4), attained_by_witness=True, "
        "witness=PointClass(cls=NSClass(genus=2, a=8, b=1, c=2)))",
    ),
    ZhangAudit: (
        lambda: zhang_audit(standard_polarization(3)),
        ("e1", "e2", "h_curve", "first_inequality_holds", "second_inequality_holds",
         "violation_margin", "minima_attained"),
        "ZhangAudit(e1=Fraction(16, 3), e2=Fraction(16, 3), h_curve=Fraction(4, 1), "
        "first_inequality_holds=True, second_inequality_holds=False, "
        "violation_margin=Fraction(4, 3), minima_attained=True)",
    ),
}

classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@classes
def test_fields_cannot_be_set_or_deleted(cls):
    make, fields, _ = CASES[cls]
    value = make()
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@classes
def test_equal_fields_equal_and_hash_alike(cls):
    make, _, _ = CASES[cls]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)


@classes
def test_never_equals_a_tuple_or_another_class(cls):
    make, fields, _ = CASES[cls]
    value = make()
    assert value != tuple(getattr(value, name) for name in fields)
    for other_cls, (other_make, _, _) in CASES.items():
        if other_cls is not cls:
            assert value != other_make()


@classes
def test_repr(cls):
    make, _, text = CASES[cls]
    assert repr(make()) == text


@classes
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal(cls, duplicate):
    make, fields, _ = CASES[cls]
    value = make()
    clone = duplicate(value)
    assert type(clone) is cls
    assert clone == value and hash(clone) == hash(value)
    assert [getattr(clone, name) for name in fields] == [
        getattr(value, name) for name in fields
    ]
