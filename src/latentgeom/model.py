"""Core types and operations for the chain model Y1 -> Y2 -> Y3 with hidden Y2.

The joint table theta(i, j, k) = p(Y1 = i, Y2 = j, Y3 = k) is stored as an
array of shape (r1, r2, r3).  The flat (serialised) cell order is the
C-order raveling of that array: k fastest, then j, then i.  All indices in
the Python API are 0-based; the CLI layer converts to and from the 1-based
convention used in its CSV files.

Conditional independence Y1 _||_ Y3 | Y2 is equivalent to the system of
s = r2 (r1 - 1)(r3 - 1) quadric residuals

    theta(I, j, K) theta(i, j, k) - theta(I, j, k) theta(i, j, K) = 0

for a fixed reference cell (I, K) and i != I, k != K.  Everything in this
module is a pure function of immutable values, whose arrays are frozen.
Every array a public function of the package returns is C-ordered.

Every tolerance constant of the package is defined here, and each module
imports the ones it reads by name; ``SUM_TOL`` is read here only, so that a
changed value reaches every row-sum test.  A rounding allowance absorbs float error in a
statement that is exact in the maths; a modelling threshold is a choice a
user may revisit.  The last three rows are argument defaults.

============  ======  =========  =============================================
name          value   kind       what it decides; who reads it
============  ======  =========  =============================================
SUM_TOL       1e-12   rounding   a given row or table sums to 1 within it;
                                 read here only, when called: _sums_to_one
                                 (the value types, fiber._mix) and
                                 _quotient_rows_pass (_unit_chains, split);
                                 one built from checked factors is not
                                 checked: a forward map's within 3 SUM_TOL
                                 plus rounding
CLAMP_EPS     1e-12   rounding   an entry this far past 0 or 1 is snapped or
                                 clipped, not refused; fiber._mix, _snap,
                                 _clamp_rows, the clamp test of apply_mixing
                                 and sample_fiber, _outside_unit_box, the
                                 box test of the reparam solvers; entries
                                 at or below it are 0 in the witness of
                                 _nested_polygon
DET_EPS       1e-12   rounding   a divisor this small is 0; fiber._nonsingular
                                 (MixingMatrix, the a-side corners),
                                 fiber._mix, the chord cut that _workspace
                                 gives _move, solve_fiber_323
EM_SLACK      1e-12   rounding   a relative EM log-likelihood drop this small
                                 is no error; likelihood._em_batch
_EPS          2**-52  rounding   float64 eps, the unit of derived bounds;
                                 _quotient_rows_pass, consistency_check's
                                 margins
INTERIOR_EPS  1e-9    modelling  entries above it are interior; jacobian_rank,
                                 fiber_dimension
RANK_CUTOFF   1e-8    modelling  relative singular-value cutoff of a rank;
                                 fiber_dimension's of a and b, marginal_rank;
                                 and as an absolute distance, points within
                                 it are one in _nested_polygon
IDENTITY_TOL  1e-8    modelling  the rank-2 identity holds within it times
                                 max(1, max z); solve_fiber_323
RESIDUAL_TOL  1e-9    modelling  solved quadric residuals vanish within it
                                 times the same scale; solve_fiber_323
tol           1e-8    modelling  a KL divergence below it is consistent;
                                 consistency_check, CLI consistency --tol
tol           1e-10   modelling  EM stops at a smaller log-likelihood gain;
                                 em_fit_details, CLI emfit --tol
tol           1e-12   modelling  the same, in consistency_check's EM search
============  ======  =========  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import BoundaryPoint, InvalidParameter
from .shapes import Dims, DimsCase, Shape, _integer_pair, dims

# the tolerances of the module docstring's table
SUM_TOL = 1e-12
CLAMP_EPS = 1e-12
DET_EPS = 1e-12
EM_SLACK = 1e-12
_EPS = float(np.finfo(float).eps)
INTERIOR_EPS = 1e-9
RANK_CUTOFF = 1e-8
IDENTITY_TOL = 1e-8
RESIDUAL_TOL = 1e-9


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _reals(values, message: str, floats: bool = True) -> np.ndarray:
    """``values`` as an array of floats, or with ``floats=False`` of the
    bools, integers or floats given: the value types' one numeric
    conversion.  Objects, such as integers past int64, become floats; a
    string, a complex or a ragged nesting raises
    ``InvalidParameter(message)``, where numpy would parse or fail.  Floats
    keep the checks that follow from integer sums, which wrap at 2**63."""
    try:
        out = np.asarray(values)
        out = out.astype(float) if out.dtype.kind == "O" else out
        if out.dtype.kind not in "biuf":
            raise ValueError
    except (TypeError, ValueError):
        raise InvalidParameter(message) from None
    return out.astype(float, copy=False) if floats else out


class _Value:
    """A value type that can be built from fields known to pass its checks."""

    @classmethod
    def _checked(cls, *values):
        """The value of fields, in declaration order, that pass the checks
        of ``__post_init__`` and are as it leaves them (arrays frozen).
        Each caller's docstring gives the proof that they do."""
        value = object.__new__(cls)
        value.__dict__.update(zip(cls.__dataclass_fields__, values))  # as __init__ sets them
        return value


def _fields_eq(self, other) -> bool:
    """Field-wise ``==`` for dataclasses with array fields: arrays compare
    with ``np.array_equal``, every other field with ``==``."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        x, y = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y):
            return False
    return True


def _sums_to_one(sums: np.ndarray) -> np.ndarray:
    """Per row sum: within ``SUM_TOL`` of 1, as the constant reads when
    called; a NaN fails.  The package's one row-sum rule."""
    return np.abs(sums - 1.0) <= SUM_TOL


def _quotient_rows_pass(length: int) -> bool:
    """True if every row of ``length`` entries >= 0, each divided by their
    rounded sum, passes :func:`_sums_to_one`: to first order such a row
    sums to 1 within (length - 1/2) eps < (length + 1) eps ((length - 1)
    eps / 2 each from the sum and from summing the quotients, eps / 2 from
    the division), which is tested against ``SUM_TOL``."""
    return (length + 1) * _EPS <= SUM_TOL


def _stochastic(rows: np.ndarray) -> np.ndarray:
    """Per member of a stack of row blocks (..., n, m): every row
    nonnegative and summing to 1 by :func:`_sums_to_one`; a NaN or an
    infinity fails.  The one probability-row test of the package: the value
    types run it on a stack of one, profile paths and certifications on many."""
    # min propagates a NaN, which then fails the comparison; the sums run
    # over |rows|, equal to rows wherever the min test passes, so that a
    # row holding both infinities sums to inf, not with a warning to NaN
    sums = np.add.reduce(np.abs(rows), -1)      # the ufuncs behind .sum, .min and .all
    return ((np.minimum.reduce(rows, (-2, -1)) >= 0.0)
            & np.logical_and.reduce(_sums_to_one(sums), -1))


def _unit_rows(*stacks: np.ndarray) -> list[np.ndarray]:
    """Each stack with every row (last axis) divided by its own sum, frozen:
    the premise of :func:`_unit_chains`, and the package's one
    renormalisation.  C-ordered stacks give C-ordered quotients, and each
    row the bits of dividing it on its own."""
    out = [rows / np.add.reduce(rows, -1, keepdims=True) for rows in stacks]
    for rows in out:
        rows.flags.writeable = False
    return out


def _ref_cell(ref_cell, r1: int, r3: int) -> tuple[int, int]:
    """A reference cell (I, K) of an r1 x r3 table: an integer pair inside
    the table."""
    ref = _integer_pair(ref_cell, "reference cell")
    if not (0 <= ref[0] < r1 and 0 <= ref[1] < r3):
        raise InvalidParameter(f"reference cell {ref} out of range")
    return ref


def _ref_frame(ref: tuple[int, int], r1: int, r3: int) -> tuple:
    """Indices ``rows, cols`` that move the reference cell (I, K) of an
    r1 x r3 table to (0, 0), the others following in order: ``x[rows, cols]``
    reads that frame, ``[1:, 1:]`` of it drops (I, K)'s row and column, and
    assigning to it writes one back.  At (0, 0) they are plain slices."""
    i, k = ref
    if not (i or k):
        return slice(None), slice(None)
    return (np.array([i, *range(i), *range(i + 1, r1)])[:, None],
            np.array([k, *range(k), *range(k + 1, r3)]))


def _check_shape(name: str, values: np.ndarray, shape: tuple[int, ...]) -> None:
    """Refuse ``values`` unless it has the given shape."""
    if values.shape != shape:
        raise InvalidParameter(f"{name} has shape {values.shape}, expected {shape}")


def _check_sums(name: str, rows: np.ndarray) -> None:
    """Refuse a stack of rows (N, m) with a sum that :func:`_sums_to_one`
    fails, naming the first."""
    sums = np.add.reduce(rows, -1)
    ok = _sums_to_one(sums)
    if not ok.all():
        which = int(np.argmin(ok))
        raise InvalidParameter(f"row {which} of {name} sums to {float(sums[which])!r}, not 1")


def _check_rows(name: str, values: np.ndarray, length: int | None = None) -> np.ndarray:
    """``values`` frozen if its rows of ``length`` entries (by default its
    last axis) pass :func:`_stochastic`; else refuse the first non-finite or
    negative entry, indexed in ``values``, then the first row whose sum is
    off 1.  A probability table is one row of all its cells."""
    rows = values.reshape(-1, length or values.shape[-1])
    if _stochastic(rows):
        return _frozen(values)
    if not np.isfinite(values).all():
        raise InvalidParameter(f"{name} contains non-finite values")
    if (values < 0).any():
        idx = np.argwhere(values < 0)[0].tolist()
        raise InvalidParameter(f"{name}({', '.join(map(str, idx))}) is negative: "
                               f"{float(values[tuple(idx)])!r}")
    _check_sums(name, rows)


def _check_table(table, shape: tuple[int, ...]) -> None:
    """Validate and freeze the ``cells`` of a probability table: the given
    shape, then :func:`_check_rows` on the cells as one row."""
    cells = _reals(table.cells, "cells must be real numbers")
    _check_shape("cells", cells, shape)
    object.__setattr__(table, "cells", _check_rows("cells", cells, cells.size))


@dataclass(frozen=True)
class JointTable(_Value):
    """Full probability table over (Y1, Y2, Y3).

    ``cells[i, j, k]`` holds theta(i, j, k); cells are nonnegative and sum
    to one within ``SUM_TOL``, or 3 ``SUM_TOL`` from :func:`joint_from_chain`
    and 2 from ``merge``, plus rounding.  Zero cells are allowed: boundary
    points are part of the geometry.
    """

    shape: Shape
    cells: np.ndarray

    __eq__ = _fields_eq

    def __post_init__(self):
        _check_table(self, self.shape.astuple())

    @classmethod
    def from_flat(cls, shape: Shape, flat: Sequence[float]) -> "JointTable":
        """Build from the documented flat order (k fastest, then j, then i)."""
        arr = _reals(flat, "cells must be real numbers")
        if arr.size != shape.ncells:
            raise InvalidParameter(
                f"flat table has {arr.size} entries, expected {shape.ncells}"
            )
        return cls(shape, arr.reshape(shape.astuple()))

    @property
    def flat(self) -> np.ndarray:
        """Cells in the documented flat order."""
        return self.cells.ravel()

    @property
    def interior(self) -> bool:
        """True iff every cell is strictly positive."""
        return bool((self.cells > 0).all())


@dataclass(frozen=True)
class ChainParams(_Value):
    """Minimal chain parametrisation: p(Y1), p(Y2|Y1) and p(Y3|Y2).

    ``p1`` has length r1, ``a`` is the r1 x r2 row-stochastic table
    p(Y2 = j | Y1 = i) and ``b`` the r2 x r3 table p(Y3 = k | Y2 = j).
    """

    shape: Shape
    p1: np.ndarray
    a: np.ndarray
    b: np.ndarray

    __eq__ = _fields_eq

    def __post_init__(self):
        r1, r2, r3 = self.shape.astuple()
        arrays = {name: _reals(getattr(self, name),
                               f"entries of {name} must be real numbers")
                  for name in ("p1", "a", "b")}
        for (name, rows), shape in zip(arrays.items(),
                                       ((r1,), (r1, r2), (r2, r3))):
            _check_shape(name, rows, shape)
        for name, rows in arrays.items():
            object.__setattr__(self, name, _check_rows(name, rows))

    @property
    def min_entry(self) -> float:
        return float(min(np.minimum.reduce(self.p1, None), np.minimum.reduce(self.a, None),
                         np.minimum.reduce(self.b, None)))

    @property
    def interior(self) -> bool:
        return self.min_entry > 0.0


def _unit_chains(shape: Shape, p1: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> list[ChainParams]:
    """``ChainParams(shape, p1, a[k], b[k])`` for each k of the stacks ``a``
    and ``b``, sharing ``shape`` and ``p1``, where each row is one that
    :func:`_unit_rows` divided and froze, from entries >= 0 or in a stack
    that holds a NaN (the clamp test of ``fiber`` passes every entry of a
    stack with one); ``p1`` may also be a checked chain's.

    The proof that they pass the checks: such a row passes them where
    :func:`_quotient_rows_pass` holds for its length, unless its sum
    overflowed and it is all zeros.  That takes its stack's sum about 1
    below its N rows (the others are off by about 2 N r eps, for rows of
    length r), and a NaN, which spreads along its row through the row sum,
    makes it NaN; so one sum per stack rules out both.  Elsewhere every
    chain goes through the checks, and the first that fails raises its error.
    """
    if all(abs(float(np.add.reduce(rows, None)) - rows.size // rows.shape[-1]) <= 0.5
           and _quotient_rows_pass(rows.shape[-1]) for rows in (p1, a, b)):
        return [ChainParams._checked(shape, p1, ak, bk) for ak, bk in zip(a, b)]
    return [ChainParams(shape, p1, ak, bk) for ak, bk in zip(a, b)]


@dataclass(frozen=True)
class MarginalTable(_Value):
    """Observed two-way table delta(i, k) = p(Y1 = i, Y3 = k), summing to
    one within ``SUM_TOL``, or from :func:`marginal_13` as its joint does."""

    shape: tuple[int, int]
    cells: np.ndarray

    __eq__ = _fields_eq

    def __post_init__(self):
        shape = _integer_pair(self.shape, "marginal shape")
        if shape[0] < 1 or shape[1] < 1:
            raise InvalidParameter(f"invalid marginal shape {shape}")
        object.__setattr__(self, "shape", shape)
        _check_table(self, shape)

    @property
    def flat(self) -> np.ndarray:
        return self.cells.ravel()


def joint_from_chain(params: ChainParams) -> JointTable:
    """Forward map theta(i, j, k) = p1(i) a(i, j) b(j, k) of checked rows.

    The checked rows prove the table (finite entries >= 0, summing to 1
    within 3 ``SUM_TOL`` plus rounding), which is frozen in place."""
    cells = np.einsum("i,ij,jk->ijk", params.p1, params.a, params.b)
    cells.flags.writeable = False
    return JointTable._checked(params.shape, cells)


def marginal_13(joint: JointTable) -> MarginalTable:
    """Sum out the hidden variable: delta(i, k) = sum_j theta(i, j, k).

    The checked joint proves the table (sums of its cells, with its total),
    which is frozen in place."""
    r1, _, r3 = joint.shape.astuple()
    cells = joint.cells.sum(axis=1)
    cells.flags.writeable = False
    return MarginalTable._checked((r1, r3), cells)


def ci_residuals(joint: JointTable, ref_cell: tuple[int, int] = (0, 0)) -> np.ndarray:
    """All s quadric residuals of conditional independence, in a fixed order.

    For reference cell (I, K), the residual for (j, i, k) is

        theta(I, j, K) theta(i, j, k) - theta(I, j, k) theta(i, j, K)

    enumerated with j outermost, then i (ascending, skipping I), then k
    (ascending, skipping K).  Zero cells are allowed; the residuals stay
    defined on the boundary.
    """
    r1, _, r3 = joint.shape.astuple()
    rows, cols = _ref_frame(_ref_cell(ref_cell, r1, r3), r1, r3)
    th = joint.cells.transpose(1, 0, 2)[:, rows, cols]    # (j, i, k), (I, K) at (0, 0)
    return (th[:, :1, :1] * th[:, 1:, 1:] - th[:, :1, 1:] * th[:, 1:, :1]).ravel()


def _numerical_rank(mat: np.ndarray) -> tuple[int, list[float]]:
    """Singular values above ``RANK_CUTOFF`` times the largest: their count,
    and all of them as floats, largest first."""
    sv = np.linalg.svd(mat, compute_uv=False).tolist()
    return (sum(s > RANK_CUTOFF * sv[0] for s in sv) if sv and sv[0] else 0), sv


def jacobian_rank(params: ChainParams) -> int:
    """Rank of the parametrisation map at an interior point: always t.

    The map f runs from the minimal chart x (each probability row without
    its last entry) to the joint table theta.  Wherever ``p1 > 0`` and
    ``m = p1 @ a > 0``, the smooth map

        g(theta) = (theta(i, +, +), theta(i, j, +) / theta(i, +, +),
                    theta(+, j, k) / theta(+, j, +))

    returns (p1, a, b), whose chart coordinates are x again.  So g o f = id
    on the chart, Dg Df = I_t by the chain rule, and Df has full column
    rank t = ``dims(shape).t``; no matrix needs to be built.  The statement
    is made on the open simplex: an entry at or below ``INTERIOR_EPS``
    raises :class:`BoundaryPoint`.
    """
    if params.min_entry <= INTERIOR_EPS:
        raise BoundaryPoint(
            f"min parameter entry {params.min_entry:.3e} <= {INTERIOR_EPS}; "
            "the rank statement holds on the open simplex only"
        )
    return dims(params.shape).t


def random_chain(shape: Shape, rng: np.random.Generator,
                 min_entry: float = 0.0) -> ChainParams:
    """Draw chain parameters with every stochastic row flat on its simplex.

    ``min_entry > 0`` redraws any row whose smallest entry does not exceed
    it, which keeps seeded test models away from the boundary.
    """
    def row(n: int) -> np.ndarray:
        for _ in range(1000):
            r = rng.dirichlet(np.ones(n))
            if r.min() > min_entry:
                return r
        raise InvalidParameter(f"could not draw a row with min entry > {min_entry}")

    r1, r2, r3 = shape.astuple()
    p1 = row(r1)
    a = np.vstack([row(r2) for _ in range(r1)])
    b = np.vstack([row(r3) for _ in range(r2)])
    return ChainParams(shape, p1, a, b)
