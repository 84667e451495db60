"""The value-type contract of ``Shape`` and ``Dims``: the ``repr``, ``==``,
``hash``, construction and immutability they had as frozen dataclasses, and
``pickle`` and ``copy`` round-trips of them and of the types that hold them."""

import copy
import pickle

import numpy as np
import pytest

from latentgeom import (
    ChainParams,
    Dims,
    DimsCase,
    InvalidParameter,
    Shape,
    consistency_check,
    diagonal_marginal,
    dims,
)
from conftest import seeded_chain

DIMS_323 = dict(d=17, t=9, s=8, m=7, fiber=2, case=DimsCase.R2_SMALL,
                constraint_count=1)

ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_reprs_are_the_dataclass_reprs():
    assert repr(Shape(3, 2, 3)) == "Shape(r1=3, r2=2, r3=3)"
    assert repr(dims(Shape(3, 2, 3))) == (
        "Dims(d=17, t=9, s=8, m=7, fiber=2, "
        "case=<DimsCase.R2_SMALL: 'R2Small'>, constraint_count=1)")


def test_keyword_construction():
    assert Shape(r1=3, r2=2, r3=3) == Shape(3, 2, 3)
    assert Shape(3, r3=3, r2=2) == Shape(3, 2, 3)
    assert Dims(**DIMS_323) == dims(Shape(3, 2, 3))
    assert Dims(*DIMS_323.values()) == dims(Shape(3, 2, 3))
    with pytest.raises(TypeError):
        Shape(3, 2)
    with pytest.raises(TypeError):
        Shape(3, 2, 3, r4=2)


def test_construction_checks_and_converts():
    assert type(Shape(np.int64(3), 2, 3).r1) is int
    with pytest.raises(InvalidParameter, match=r"^r3 must be >= 2, got 1$"):
        Shape(r1=3, r2=2, r3=1)
    with pytest.raises(InvalidParameter, match=r"^t != d - s$"):
        Dims(**dict(DIMS_323, t=10))
    with pytest.raises(InvalidParameter, match=r"^fiber != t - m$"):
        Dims(**dict(DIMS_323, fiber=3))


def test_equality_and_hash_go_by_the_fields_of_one_class():
    shape = Shape(3, 2, 3)
    assert shape == Shape(3, 2, 3) and hash(shape) == hash(Shape(3, 2, 3))
    assert shape != Shape(3, 3, 3)
    assert hash(shape) == hash((3, 2, 3))
    # a Shape is not the tuple of its sizes, either way round, and a dict or
    # a cache keeps the two apart
    assert shape != (3, 2, 3) and (3, 2, 3) != shape
    assert shape != [3, 2, 3]
    assert len({shape: 0, (3, 2, 3): 1}) == 2
    assert shape.astuple() == (3, 2, 3) and shape.ncells == 18
    d = dims(shape)
    assert hash(d) == hash(tuple(DIMS_323.values()))
    assert d != tuple(DIMS_323.values())
    assert d != dims(Shape(3, 3, 3))


@pytest.mark.parametrize("value", [Shape(3, 2, 3), dims(Shape(3, 2, 3))])
def test_fields_cannot_be_assigned_or_deleted(value):
    for name in ("r1", "d", "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 4)
    field = "r1" if isinstance(value, Shape) else "d"
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_shape_and_dims_round_trip(how):
    for value in (Shape(3, 2, 3), Shape(np.int64(5), 2, 4), dims(Shape(4, 3, 4))):
        back = ROUND_TRIPS[how](value)
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == repr(value)
    assert type(ROUND_TRIPS[how](Shape(np.int64(5), 2, 4)).r1) is int


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_chain_and_report_round_trip(how):
    params = seeded_chain((3, 2, 3), 4)
    back = ROUND_TRIPS[how](params)
    assert back == params and type(back.shape) is Shape
    assert back.shape == Shape(3, 2, 3)
    for name in ("p1", "a", "b"):
        assert np.array_equal(getattr(back, name), getattr(params, name))
    report = consistency_check(diagonal_marginal(3, 3), 3)
    assert report.witness is not None
    back = ROUND_TRIPS[how](report)
    assert back == report
    assert back.witness.shape == Shape(3, 3, 3)
