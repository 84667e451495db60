"""Shapes, their dimension count and the rule for what is an integer, with
no numpy, so a ``dims`` start does not load it; :mod:`model` re-exports them.
``Shape`` and ``Dims`` are not dataclasses, which would load :mod:`inspect`."""

import sys
from enum import Enum
from operator import attrgetter

from .errors import InvalidParameter


def _is_integer(value) -> bool:
    """What a size must be: a Python or numpy integer, never a float or a
    string that int() would truncate or parse, nor a ``bool``.  A value can
    be a numpy integer only once numpy is loaded."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.integer)


def _check_count(name: str, value, low: int) -> None:
    """Reject a size, count or seed that is not an integer by the rule of
    :func:`_is_integer`, or is below ``low``."""
    if not _is_integer(value):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidParameter(f"{name} must be >= {low}, got {value}")


def _integer_pair(pair, what: str) -> tuple[int, int]:
    """The two entries of a table shape or cell index, each an integer by
    the rule of :func:`_is_integer`."""
    try:
        first, second = pair
    except (TypeError, ValueError):
        first = second = None
    if not (_is_integer(first) and _is_integer(second)):
        raise InvalidParameter(f"{what} must be two integers, got {pair!r}")
    return int(first), int(second)


class _Frozen:
    """A value over the fields its ``__slots__`` name, as a frozen dataclass
    would be: the same ``repr``, ``==`` with its own class only, ``hash`` of
    the field tuple, no assignment, and pickle and copy through ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(attrgetter(*cls.__slots__))  # the field tuple, in C

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields


class Shape(_Frozen):
    """Cardinalities (r1, r2, r3) of the three variables; each must be >= 2."""

    __slots__ = ("r1", "r2", "r3")

    def __init__(self, r1: int, r2: int, r3: int):
        for name, v in zip(self.__slots__, (r1, r2, r3)):
            _check_count(name, v, 2)
            object.__setattr__(self, name, int(v))

    def astuple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)

    @property
    def ncells(self) -> int:
        return self.r1 * self.r2 * self.r3


class DimsCase(Enum):
    """Which regime the shape falls in: r2 >= min(r1, r3) or r2 < min(r1, r3)."""

    R2_LARGE = "R2Large"
    R2_SMALL = "R2Small"


class Dims(_Frozen):
    """Dimension bookkeeping for one shape.

    d      ambient simplex dimension r1 r2 r3 - 1
    t      model dimension r1 r2 + r2 r3 - r2 - 1 (equals d - s)
    s      number of irredundant quadrics r2 (r1 - 1)(r3 - 1)
    m      dimension of the marginal space actually reachable
    fiber  dimension of the unidentifiable set, t - m
    constraint_count  (r1 - r2)(r3 - r2) marginal constraints in the small-r2
                      case, 0 otherwise
    """

    __slots__ = ("d", "t", "s", "m", "fiber", "case", "constraint_count")

    def __init__(self, d: int, t: int, s: int, m: int, fiber: int,
                 case: DimsCase, constraint_count: int):
        if t != d - s:
            raise InvalidParameter("t != d - s")
        if fiber != t - m:
            raise InvalidParameter("fiber != t - m")
        for name, v in zip(self.__slots__, (d, t, s, m, fiber, case, constraint_count)):
            object.__setattr__(self, name, v)


def dims(shape: Shape) -> Dims:
    """Dimension accounting for the chain model at the given shape.

    In the large-r2 case (r2 >= min(r1, r3)) the marginal space is the full
    simplex, m = r1 r3 - 1, and the fiber picks up the remainder
    t - m = r2 (r1 + r3 - 1) - r1 r3.  In the small-r2 case the fiber has
    dimension r2 (r2 - 1) and the marginal loses (r1 - r2)(r3 - r2)
    dimensions.
    """
    r1, r2, r3 = shape.astuple()
    d = r1 * r2 * r3 - 1
    t = r1 * r2 + r2 * r3 - r2 - 1
    s = r2 * (r1 - 1) * (r3 - 1)
    if r2 >= min(r1, r3):
        case = DimsCase.R2_LARGE
        m = r1 * r3 - 1
        fiber = t - m
        constraints = 0
    else:
        case = DimsCase.R2_SMALL
        fiber = r2 * (r2 - 1)
        m = t - fiber
        constraints = (r1 - r2) * (r3 - r2)
    return Dims(d=d, t=t, s=s, m=m, fiber=fiber, case=case,
                constraint_count=constraints)
