"""Value semantics of the six public value classes.

Each is immutable, equal only to an instance of its own class with equal
stored fields, hashes like those fields, has a fixed repr, and survives
copy, deepcopy and pickle as an equal object.  Attributes derived from the
stored fields are read-only too, and read the same on every copy.
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

# class -> (a function building one instance, its stored fields in order,
# its repr, the attributes derived from the stored fields).
CASES = {
    NSClass: (
        lambda: NSClass(2, 1, Fraction(1, 2), -3),
        ("genus", "a", "b", "c"),
        "NSClass(genus=2, a=1, b=1/2, c=-3)",
        ("coefficients", "is_zero"),
    ),
    PointClass: (
        lambda: PointClass(NSClass(2, 8, 1, 2)),
        ("cls",),
        "PointClass(cls=NSClass(genus=2, a=8, b=1, c=2))",
        ("degree",),
    ),
    ConeVerdict: (
        lambda: classify(NSClass(2, 3, 1, 1)),
        ("region", "defect"),
        "ConeVerdict(region=<Region.INTERIOR: 'interior'>, defect=Fraction(1, 1))",
        ("is_ample", "is_nef", "is_big", "is_psef"),
    ),
    NefDecomposition: (
        lambda: nef_decomposition(NSClass(2, 3, 1, 1)),
        ("boundary_part", "alpha_excess"),
        "NefDecomposition(boundary_part=NSClass(genus=2, a=2, b=1, c=1), "
        "alpha_excess=Fraction(1, 1))",
        ("degenerate",),
    ),
    MinimaReport: (
        lambda: cone_minimum(standard_polarization(2)),
        ("infimum", "s_star", "t_star", "witness"),
        "MinimaReport(infimum=Fraction(3, 2), s_star=Fraction(1, 8), "
        "t_star=Fraction(1, 4), "
        "witness=PointClass(cls=NSClass(genus=2, a=8, b=1, c=2)))",
        ("attained_by_witness",),
    ),
    ZhangAudit: (
        lambda: zhang_audit(standard_polarization(3)),
        ("e1", "h_curve", "violation_margin"),
        "ZhangAudit(e1=Fraction(16, 3), h_curve=Fraction(4, 1), "
        "violation_margin=Fraction(4, 3))",
        ("e2", "first_inequality_holds", "second_inequality_holds", "minima_attained"),
    ),
}

classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@classes
def test_fields_cannot_be_set_or_deleted(cls):
    make, fields, _, derived = CASES[cls]
    value = make()
    for name in (*fields, *derived, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in (*fields, *derived):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@classes
def test_equal_fields_equal_and_hash_alike(cls):
    make, _, _, _ = CASES[cls]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)


@classes
def test_never_equals_a_tuple_or_another_class(cls):
    make, fields, _, _ = CASES[cls]
    value = make()
    assert value != tuple(getattr(value, name) for name in fields)
    for other_cls, (other_make, _, _, _) in CASES.items():
        if other_cls is not cls:
            assert value != other_make()


@classes
def test_repr(cls):
    make, _, text, _ = CASES[cls]
    assert repr(make()) == text


@classes
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal(cls, duplicate):
    make, fields, _, derived = CASES[cls]
    value = make()
    clone = duplicate(value)
    assert type(clone) is cls
    assert clone == value and hash(clone) == hash(value)
    assert [getattr(clone, name) for name in (*fields, *derived)] == [
        getattr(value, name) for name in (*fields, *derived)
    ]
