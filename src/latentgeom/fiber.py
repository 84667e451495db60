"""The unidentifiable fiber as a mixing-matrix group action.

An invertible r2 x r2 matrix q with unit row sums acts on chain parameters
by a' = a q^{-1}, b' = q b, leaving p1 and therefore the observed (Y1, Y3)
marginal exactly unchanged.  Matrices keeping (a', b') entrywise
nonnegative form the validity polytope; for r2 = 2 it is described in
closed form by the (pi, rho) parametrisation with rows (pi, 1 - pi) and
(rho, 1 - rho).  Pushing (pi, rho) to the polytope corners produces the
maximally informative boundary representations with structural zeros;
:func:`sample_fiber` moves along exact chords of rank-one mixings.  The
tangent rank of the action at the identity is the dimension of the orbit,
which fills the fiber (``dims(...).fiber``) unless
min(r1, r3) < r2 < max(r1, r3); see :func:`fiber_dimension`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryPoint,
    InvalidMixing,
    InvalidParameter,
    SingularMixing,
)
from .model import (
    CLAMP_EPS,
    DET_EPS,
    INTERIOR_EPS,
    ChainParams,
    _Value,
    _check_sums,
    _fields_eq,
    _frozen,
    _numerical_rank,
    _reals,
    _sums_to_one,
    _unit_chains,
    _unit_rows,
)
from .shapes import _check_count

#: the most points :func:`sample_fiber` moves at once
_DRAWS = 1024


def _nonsingular(q: np.ndarray) -> None:
    """Refuse a q with |det q| <= DET_EPS."""
    det = float(np.linalg.det(q))
    if abs(det) <= DET_EPS:
        raise SingularMixing(f"|det q| = {abs(det):.3e} <= {DET_EPS}")


@dataclass(frozen=True)
class MixingMatrix(_Value):
    """Invertible matrix with unit row sums acting on the latent labels.

    Entries may be any reals; whether the action keeps the parameters
    nonnegative is checked by :func:`apply_mixing`, not here.
    """

    q: np.ndarray

    __eq__ = _fields_eq

    def __post_init__(self):
        q = _reals(self.q, "entries of q must be real numbers")
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 2:
            raise InvalidParameter(f"q must be square of size >= 2, got {q.shape}")
        # a min and a max that a NaN or an infinity fails, then the row sums
        if not -np.inf < np.minimum.reduce(q, None) <= np.maximum.reduce(q, None) < np.inf:
            raise InvalidParameter("q contains non-finite entries")
        _check_sums("q", q)
        _nonsingular(q)
        object.__setattr__(self, "q", _frozen(q))

    @classmethod
    def from_pi_rho(cls, pi: float, rho: float) -> "MixingMatrix":
        """The 2 x 2 parametrisation with rows (pi, 1 - pi), (rho, 1 - rho)."""
        return cls(np.array([[pi, 1.0 - pi], [rho, 1.0 - rho]]))

    @classmethod
    def identity(cls, r2: int) -> "MixingMatrix":
        return cls(np.eye(r2))

    @property
    def size(self) -> int:
        return self.q.shape[0]

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.q))


def _act(a: np.ndarray, b: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The action (a q^{-1}, q b) of every matrix of the stack ``qs``
    (K, r2, r2), each invertible, with the analytic inverse for r2 = 2 and
    one LAPACK solve otherwise, its transpose copied to C order."""
    if qs.shape[1] == 2:
        # analytic inverse keeps boundary zeros exact: row i of a q^{-1}
        # is ((a_i0 - rho)/(pi - rho), (pi - a_i0)/(pi - rho))
        pi, rho = qs[:, 0, 0, None], qs[:, 1, 0, None]
        col, spread = a[:, 0], pi - rho
        moved = np.empty((len(qs), len(col), 2))
        np.divide(col - rho, spread, out=moved[:, :, 0])
        np.divide(pi - col, spread, out=moved[:, :, 1])
    else:
        moved = np.linalg.solve(qs.transpose(0, 2, 1), a.T).transpose(0, 2, 1).copy()
    return moved, qs @ b


def _mix(params: ChainParams, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply every matrix of the stack ``qs`` (K, r2, r2) to ``params``:
    a q^{-1} and q b before clamping, and the mask of each q that
    :class:`MixingMatrix` accepts with det q > DET_EPS, the identity's side
    of the singular matrices, and whose action passes the clamp test of
    :func:`_clamp_rows`; any other q acts as the identity, a placeholder.
    Each member gets exactly the arithmetic of a stack of one, the same
    determinant and :func:`_act`, whatever the other members are.
    """
    # the placeholders may divide by zero where the serial checks would
    # have stopped first
    with np.errstate(divide="ignore", invalid="ignore"):
        # a non-finite entry makes its row sum non-finite, so one test
        # covers both checks of MixingMatrix before the determinant's
        invertible = (_sums_to_one(qs.sum(axis=2)).all(axis=1)
                      & (np.linalg.det(qs) > DET_EPS))
        if not invertible.all():
            qs = np.where(invertible[:, None, None], qs, np.eye(qs.shape[1]))
        a, b = _act(params.a, params.b, qs)
        # the clamp tests of a and b reject a worst entry below -CLAMP_EPS,
        # never a NaN, which fmin passes over
        valid = invertible & ~(np.fmin(a.min(axis=(1, 2)), b.min(axis=(1, 2)))
                               < -CLAMP_EPS)
    return a, b, valid


def _snap(rows: np.ndarray, worst: float | None = None) -> np.ndarray:
    """Snap entries in [-CLAMP_EPS, 0], -0.0 included, to exact zero in a
    copy unless ``worst``, their minimum if given, is above 0; renormalise
    with ``_unit_rows``: every entry the clamp test accepts ends >= 0."""
    if worst is None:
        worst = np.minimum.reduce(rows, None)
    if not worst > 0.0:
        rows = rows.copy()
        rows[(rows >= -CLAMP_EPS) & (rows <= 0.0)] = 0.0
    return _unit_rows(rows)[0]


def _clamp_rows(name: str, rows: np.ndarray) -> np.ndarray:
    """Snap roundoff negatives to exact zero, reject real ones, renormalise."""
    worst = float(np.minimum.reduce(rows, None))
    if worst < -CLAMP_EPS:
        idx = tuple(int(x) for x in np.argwhere(rows == worst)[0])
        raise InvalidMixing(name, idx, worst)
    return _snap(rows, worst)


def apply_mixing(params: ChainParams, q: MixingMatrix) -> ChainParams:
    """Transform the parameters along the fiber: a' = a q^{-1}, b' = q b.

    The observed (Y1, Y3) marginal is exactly invariant because the factors
    cancel inside the matrix product.  Entries of a' or b' in
    [-CLAMP_EPS, 0) are snapped to exact zero and the row renormalised; larger
    negativity means q left the validity polytope and raises
    :class:`InvalidMixing` with the most violated entry.  The action is
    :func:`_act` on a stack of one, as in the stacked :func:`_mix` of
    :func:`~latentgeom.likelihood.profile_along_fiber`, so both give the
    same bits for the same q; :class:`MixingMatrix` has proven q finite,
    with unit row sums and |det| > DET_EPS, so nothing else is computed.
    """
    r2 = params.shape.r2
    if q.size != r2:
        raise InvalidParameter(f"q is {q.size} x {q.size}, model has r2 = {r2}")
    a, b = _act(params.a, params.b, q.q[None])
    return _unit_chains(params.shape, params.p1, _clamp_rows("a", a[0])[None],
                        _clamp_rows("b", b[0])[None])[0]


@dataclass(frozen=True)
class RhoPiBounds:
    """Closed-form a-side bounds of the 2 x 2 mixing parametrisation.

    On the branch pi > rho, a q^{-1} stays nonnegative exactly for
    rho <= rho_max and pi >= pi_min, where rho_max = min_i a(i, 0)
    (achieved at row ``i_min``) and pi_min = max_i a(i, 0) (row ``i_max``).
    q b stays nonnegative exactly for pi and rho in the interval
    [u_lo, u_hi] of ``u`` on which u b[0] + (1 - u) b[1] is nonnegative,
    with u_lo <= 0 and u_hi >= 1 (the whole line if the rows of b are
    equal).  So the action is valid exactly on the rectangle
    pi in [pi_min, u_hi], rho in [u_lo, rho_max], which contains
    [pi_min, 1] x [0, rho_max].  The mirrored branch pi < rho swaps the
    roles of pi and rho.
    """

    rho_max: float
    pi_min: float
    i_min: int
    i_max: int

    def __post_init__(self):
        if not (0.0 <= self.rho_max <= self.pi_min <= 1.0):
            raise InvalidParameter(
                f"bounds must satisfy 0 <= rho_max <= pi_min <= 1, got "
                f"({self.rho_max!r}, {self.pi_min!r})"
            )


def rho_pi_bounds(params: ChainParams) -> RhoPiBounds:
    """Extremes of the first column of p(Y2|Y1); requires r2 = 2."""
    if params.shape.r2 != 2:
        raise InvalidParameter("rho/pi bounds are defined for r2 = 2 only")
    col = params.a[:, 0]
    i_min = int(col.argmin())
    i_max = int(col.argmax())
    return RhoPiBounds(rho_max=float(col[i_min]), pi_min=float(col[i_max]),
                       i_min=i_min, i_max=i_max)


@dataclass(frozen=True)
class ExtremeMixing:
    """A boundary mixing matrix together with the degeneracy it induces.

    ``zeros`` lists (matrix, row, col) entries of the transformed
    parameters that are forced to exact zero, with matrix "a" for
    p(Y2'|Y1) and "b" for p(Y3|Y2')."""

    q: MixingMatrix
    branch: str
    zeros: tuple[tuple[str, int, int], ...]


def _b_side_interval(b: np.ndarray) -> tuple[float, int, float, int]:
    """Range of u for which u b[0, :] + (1 - u) b[1, :] stays nonnegative.

    Returns (u_lo, k_lo, u_hi, k_hi) where the bounds are attained with an
    exact zero at columns k_lo / k_hi.  Requires the two rows of b to
    differ somewhere on each side; otherwise no mixing can push b to its
    boundary and :class:`BoundaryPoint` is raised.
    """
    b0, b1 = b[0], b[1]
    hi = np.flatnonzero(b0 < b1)
    lo = np.flatnonzero(b0 > b1)
    if not hi.size or not lo.size:
        raise BoundaryPoint(
            "rows of p(Y3|Y2) do not straddle; no boundary mixing exists"
        )
    u_his = b1[hi] / (b1[hi] - b0[hi])
    u_los = b1[lo] / (b1[lo] - b0[lo])
    # ties go to the smallest column for u_hi and the largest for u_lo
    k_hi = int(hi[np.argmin(u_his)])
    k_lo = int(lo[lo.size - 1 - np.argmax(u_los[::-1])])
    u_hi, u_lo = u_his.min(), u_los.max()
    return u_lo, k_lo, u_hi, k_hi


def _corner(pi: float, rho: float) -> MixingMatrix:
    """``MixingMatrix.from_pi_rho(pi, rho)`` for pi and rho in [0, 1], as
    :class:`RhoPiBounds` proves of the a-side corners.  Every entry lies in
    [0, 1], so q is finite, and each row x + (1 - x) sums to 1 within eps
    (eps / 2 from the subtraction and from the sum): of the checks only
    the determinant test is left."""
    q = np.array([[pi, 1.0 - pi], [rho, 1.0 - rho]])
    _nonsingular(q)
    q.flags.writeable = False
    return MixingMatrix._checked(q)


def extreme_mixings(params: ChainParams, side: str = "a") -> list[ExtremeMixing]:
    """The boundary mixings that make a transformed factor degenerate.

    ``side = "a"``: the two informative corners of the (pi, rho) validity
    region, (pi_min, rho_max) and its mirrored twin, each driving an exact
    zero into *both* columns of the transformed p(Y2'|Y1).

    ``side = "b"``: the transposed construction, pushing the rows of
    q b to the boundary instead, so each row of the transformed p(Y3|Y2')
    acquires a zero.

    Requires r2 = 2 and interior parameters; parameters already on the
    fiber boundary (rho_max = 0 or pi_min = 1) raise
    :class:`BoundaryPoint`, as does a pinched region rho_max = pi_min,
    where the corner matrix would be singular.
    """
    if params.shape.r2 != 2:
        raise InvalidParameter("extreme mixings are defined for r2 = 2 only")
    if side not in ("a", "b"):
        raise InvalidParameter(f"side must be 'a' or 'b', got {side!r}")
    if side == "a":
        bounds = rho_pi_bounds(params)
        if bounds.rho_max <= 0.0 or bounds.pi_min >= 1.0:
            raise BoundaryPoint(
                "p(Y2|Y1) already touches the boundary; no extreme vertex"
            )
        if bounds.pi_min == bounds.rho_max:
            raise BoundaryPoint(
                "constant p(Y2 = 1|Y1): the validity rectangle pinches to a "
                "segment and the informative corner is singular"
            )
        pi, rho = bounds.pi_min, bounds.rho_max
        zeros = (("a", bounds.i_min, 0), ("a", bounds.i_max, 1))
        mirrored_zeros = (("a", bounds.i_max, 0), ("a", bounds.i_min, 1))
        mixing = _corner
    else:
        if params.min_entry <= 0.0:
            raise BoundaryPoint("b-side construction requires interior "
                                "parameters")
        rho, k_lo, pi, k_hi = _b_side_interval(params.b)
        zeros = (("b", 0, k_hi), ("b", 1, k_lo))
        mirrored_zeros = (("b", 0, k_lo), ("b", 1, k_hi))
        mixing = MixingMatrix.from_pi_rho
    return [
        ExtremeMixing(q=mixing(pi, rho), branch="main", zeros=zeros),
        ExtremeMixing(q=mixing(rho, pi), branch="mirrored", zeros=mirrored_zeros),
    ]


def _move(a: np.ndarray, b: np.ndarray, w: np.ndarray, j: int, u: np.ndarray,
          work: tuple[np.ndarray, ...]) -> None:
    """Move each point (a[k], b[k]) of the stack in place by q = I + t e_j w[k]^T,
    t the fraction u[k] of the way along its exact chord.

    w 1 = 0 keeps q 1 = 1.  By Sherman-Morrison a q^{-1} = (a + t S) /
    (1 + t w_j), S = w_j a - a[:, j] w^T; q b moves row j to b[j] + t w^T b.
    An entry c + t d of these numerators is >= 0 on one side of -1 / (d / c)
    (of 0 if rounding left c at 0), and column j of S is 0, so the chord
    keeps 1 + t w_j > 0.  Slopes -+DET_EPS cut a chord nothing else bounds
    (equal rows of b) at |t| = 1 / DET_EPS.  Scaling row j of b to sum 1 and
    column j of a by its sum keeps a b, and row-sum rounding from growing.

    ``work`` is :func:`_workspace`; the caller ignores division by zero
    and invalid values, as c may be 0.
    """
    slopes, step, prod = work
    count, cells = len(a), step[0].size
    aj, bj = a[:, :, j], b[:, j]
    np.multiply(a, w[:, j, None, None], out=step)
    np.multiply(aj[:, :, None], w[:, None, :], out=prod)
    np.subtract(step, prod, out=step)
    shift = np.add.reduce(w[:, :, None] * b, 1)
    np.divide(step.reshape(count, cells), a.reshape(count, cells), out=slopes[:, :cells])
    np.divide(shift, bj, out=slopes[:, cells:-2])
    lo, hi = -1.0 / np.maximum.reduce(slopes, 1), -1.0 / np.minimum.reduce(slopes, 1)
    t = lo + u * (hi - lo)
    np.multiply(t[:, None, None], step, out=prod)
    np.add(a, prod, out=prod)
    np.divide(prod, (1.0 + t * w[:, j])[:, None, None], out=a)
    np.add(bj, t[:, None] * shift, out=bj)
    sums = np.add.reduce(bj, 1, keepdims=True)
    np.divide(bj, sums, out=bj)
    np.multiply(aj, sums, out=aj)


def _workspace(count: int, r1: int, r2: int, r3: int) -> tuple[np.ndarray, ...]:
    """:func:`_move`'s buffers on a stack of ``count`` points: rows of slopes
    d / c ending in the cut slopes -+DET_EPS, then S and t S."""
    slopes = np.empty((count, r1 * r2 + r3 + 2))
    slopes[:, -2:] = -DET_EPS, DET_EPS
    return slopes, *np.empty((2, count, r1, r2))


def sample_fiber(params: ChainParams, n: int, seed: int = 0) -> list[ChainParams]:
    """Draw n points of the fiber through ``params``, without rejection.

    Each point takes one sweep of hit-and-run steps on exact chords (Smith
    1984) from ``params``: :func:`_move` for j = 0 .. r2 - 1, with w standard
    normal but for its last entry, minus the sum of the others, and u
    uniform.  At r2 = 2 the moves set pi, then rho, uniform on the rectangle
    ``[pi_min, u_hi] x [u_lo, rho_max]`` of :class:`RhoPiBounds`, the
    identity's branch (``permute_latent`` gives the mirrored one).  For
    r2 >= 3 the law is that of one sweep.  Points move in stacks of at most
    ``_DRAWS``; a failed clamp test raises :class:`InvalidMixing`.
    """
    _check_count("n", n, 0)
    _check_count("seed", seed, 0)
    if params.min_entry <= 0.0:
        raise BoundaryPoint("fiber sampling requires interior parameters")
    rng, (r1, r2, r3) = np.random.default_rng(seed), params.shape.astuple()
    a, b = np.empty((n, r1, r2)), np.empty((n, r2, r3))
    a[...], b[...] = params.a, params.b
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, _DRAWS):
            w = rng.standard_normal((min(n - start, _DRAWS), r2, r2))
            np.negative(np.add.reduce(w[:, :, :-1], 2), out=w[:, :, -1])
            stack = a[start:start + _DRAWS], b[start:start + _DRAWS]
            work = _workspace(len(w), r1, r2, r3)
            for j, u in enumerate(rng.random((len(w), r2)).T):
                _move(*stack, w[:, j], j, u, work)
    return _unit_chains(params.shape, params.p1, _clamp_rows("a", a),
                        _clamp_rows("b", b)) if n else []


def fiber_dimension(params: ChainParams) -> int:
    """Tangent dimension of the mixing orbit at the identity.

    The derivative of q -> (a q^{-1}, q b) at q = I in direction M is
    (-a M, M b), a linear map on the r2 (r2 - 1) dimensional space of
    zero-row-sum matrices.  Its kernel, a M = 0 and M b = 0 (M b = 0 gives
    M 1 = M b 1 = 0), is ker(a) (x) ker(b^T), so the orbit dimension is
    r2 (r2 - 1) - (r2 - rank a) (r2 - rank b), with the ranks of the factors
    at the cutoff ``RANK_CUTOFF``; no tangent matrix is built.  For a and b
    of full rank that is ``dims(...).fiber`` when r2 <= min(r1, r3) or
    r2 >= max(r1, r3), and smaller by (max(r1, r3) - r2) (r2 - min(r1, r3))
    in between: at 6x4x3 the orbit has dimension 12 and the fiber 14, as
    the mixing action does not reach all of it.

    Parameters with boundary zeros raise :class:`BoundaryPoint`, except for
    one-sided degeneracy (p1 interior and exactly one of a, b interior),
    which is allowed with a warning since the rank may or may not drop.
    """
    p1_ok = np.minimum.reduce(params.p1, None) > INTERIOR_EPS
    a_ok = np.minimum.reduce(params.a, None) > INTERIOR_EPS
    b_ok = np.minimum.reduce(params.b, None) > INTERIOR_EPS
    if not (p1_ok and a_ok and b_ok):
        if p1_ok and (a_ok or b_ok):
            warnings.warn(
                "one-sided degenerate parameters: orbit rank reported as found",
                UserWarning,
            )
        else:
            raise BoundaryPoint("fiber dimension requires (one-sided) interior "
                                "parameters")
    r2 = params.shape.r2
    return r2 * (r2 - 1) - ((r2 - _numerical_rank(params.a)[0])
                            * (r2 - _numerical_rank(params.b)[0]))
