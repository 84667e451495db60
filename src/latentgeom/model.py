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
module is a pure function of immutable values; arrays are frozen after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import BoundaryPoint, InvalidParameter
from .shapes import Dims, DimsCase, Shape, _integer_pair, dims

#: absolute tolerance for "sums to one" invariants
SUM_TOL = 1e-12
#: entries must exceed this for a point to count as interior
INTERIOR_EPS = 1e-9
#: relative singular-value cutoff for numerical ranks
RANK_CUTOFF = 1e-8


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
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


def _stochastic(rows: np.ndarray) -> np.ndarray:
    """Per member of a stack of row blocks (..., n, m): every row
    nonnegative and summing to 1 within ``SUM_TOL``; a NaN or an infinity
    fails.  The one probability-row test of the package: the value types
    run it on a stack of one, the stacked fiber walks on many."""
    # min and max propagate a NaN, which then fails the comparison; the
    # sums run over |rows|, equal to rows wherever the min test passes, so
    # that a row holding both infinities sums to inf, not with a warning to NaN
    return ((rows.min(axis=(-2, -1)) >= 0.0)
            & (np.abs(np.abs(rows).sum(axis=-1) - 1.0).max(axis=-1) <= SUM_TOL))


def _ref_cell(ref_cell, r1: int, r3: int) -> tuple[int, int]:
    """A reference cell (I, K) of an r1 x r3 table: an integer pair inside
    the table."""
    ref = _integer_pair(ref_cell, "reference cell")
    if not (0 <= ref[0] < r1 and 0 <= ref[1] < r3):
        raise InvalidParameter(f"reference cell {ref} out of range")
    return ref


def _check_table(table, shape: tuple[int, ...]) -> None:
    """Freeze and validate the ``cells`` of a probability table: the given
    shape, then :func:`_stochastic` on the cells as one row."""
    cells = _frozen(_reals(table.cells, "cells must be real numbers"))
    if cells.shape != shape:
        raise InvalidParameter(f"cells have shape {cells.shape}, expected {shape}")
    if not _stochastic(cells.reshape(1, -1)):
        if not np.isfinite(cells).all():
            raise InvalidParameter("cells contain non-finite values")
        if (cells < 0).any():
            idx = tuple(int(x) for x in np.argwhere(cells < 0)[0])
            raise InvalidParameter(f"cell {idx} is negative: {float(cells[idx])!r}")
        raise InvalidParameter(
            f"cells sum to {float(cells.sum())!r}, not 1 within {SUM_TOL}")
    object.__setattr__(table, "cells", cells)


@dataclass(frozen=True)
class JointTable:
    """Full probability table over (Y1, Y2, Y3).

    ``cells[i, j, k]`` holds theta(i, j, k); cells are nonnegative and sum
    to one within 1e-12.  Zero cells are allowed: boundary points are part
    of the geometry.
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


def _check_rows(name: str, rows: np.ndarray) -> None:
    if _stochastic(rows):
        return
    if not np.isfinite(rows).all():
        raise InvalidParameter(f"{name} contains non-finite values")
    if (rows < 0).any():
        idx = tuple(int(x) for x in np.argwhere(rows < 0)[0])
        raise InvalidParameter(f"{name}{idx} is negative: {float(rows[idx])!r}")
    sums = rows.sum(axis=-1)
    which = int(np.flatnonzero(np.abs(sums.ravel() - 1.0) > SUM_TOL)[0])
    raise InvalidParameter(
        f"row {which} of {name} sums to {float(sums.ravel()[which])!r}, not 1"
    )


@dataclass(frozen=True)
class ChainParams:
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
            if rows.shape != shape:
                raise InvalidParameter(
                    f"{name} has shape {rows.shape}, expected {shape}")
        for name, rows in arrays.items():
            _check_rows(name, rows.reshape(-1, rows.shape[-1]))
            object.__setattr__(self, name, _frozen(rows))

    @property
    def min_entry(self) -> float:
        return float(min(self.p1.min(), self.a.min(), self.b.min()))

    @property
    def interior(self) -> bool:
        return self.min_entry > 0.0


@dataclass(frozen=True)
class MarginalTable:
    """Observed two-way table delta(i, k) = p(Y1 = i, Y3 = k)."""

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
    """Forward map theta(i, j, k) = p1(i) a(i, j) b(j, k)."""
    cells = np.einsum("i,ij,jk->ijk", params.p1, params.a, params.b)
    return JointTable(params.shape, cells)


def marginal_13(joint: JointTable) -> MarginalTable:
    """Sum out the hidden variable: delta(i, k) = sum_j theta(i, j, k)."""
    r1, _, r3 = joint.shape.astuple()
    return MarginalTable((r1, r3), joint.cells.sum(axis=1))


def ci_residuals(joint: JointTable, ref_cell: tuple[int, int] = (0, 0)) -> np.ndarray:
    """All s quadric residuals of conditional independence, in a fixed order.

    For reference cell (I, K), the residual for (j, i, k) is

        theta(I, j, K) theta(i, j, k) - theta(I, j, k) theta(i, j, K)

    enumerated with j outermost, then i (ascending, skipping I), then k
    (ascending, skipping K).  Zero cells are allowed; the residuals stay
    defined on the boundary.
    """
    r1, r2, r3 = joint.shape.astuple()
    ref_i, ref_k = _ref_cell(ref_cell, r1, r3)
    th = joint.cells.transpose(1, 0, 2)
    # every (j, i, k); the residuals at i = I or k = K vanish and are dropped
    res = (th[:, ref_i, None, ref_k, None] * th
           - th[:, ref_i, None, :] * th[:, :, ref_k, None])
    return res[:, np.arange(r1) != ref_i][:, :, np.arange(r3) != ref_k].ravel()


def _numerical_rank(mat: np.ndarray) -> int:
    """Count singular values above ``RANK_CUTOFF`` times the largest."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_CUTOFF * sv[0]))


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
