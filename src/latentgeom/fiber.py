"""The unidentifiable fiber as a mixing-matrix group action.

An invertible r2 x r2 matrix q with unit row sums acts on chain parameters
by a' = a q^{-1}, b' = q b, leaving p1 and therefore the observed (Y1, Y3)
marginal exactly unchanged.  Matrices keeping (a', b') entrywise
nonnegative form the validity polytope; for r2 = 2 it is described in
closed form by the (pi, rho) parametrisation with rows (pi, 1 - pi) and
(rho, 1 - rho).  Pushing (pi, rho) to the polytope corners produces the
maximally informative boundary representations with structural zeros.  The
tangent rank of the action at the identity is the dimension of the orbit,
which fills the fiber (``dims(...).fiber``) unless
min(r1, r3) < r2 < max(r1, r3); see :func:`fiber_dimension`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryPoint,
    DegenerateInput,
    InvalidMixing,
    InvalidParameter,
    RejectionStall,
    SingularMixing,
)
from . import model
from .model import (
    INTERIOR_EPS,
    SUM_TOL,
    ChainParams,
    _fields_eq,
    _frozen,
    _numerical_rank,
    _reals,
)
from .shapes import _check_count

#: entries in [-CLAMP_EPS, 0) are roundoff and snap to exact zero
CLAMP_EPS = 1e-12
#: |det| at or below this counts as singular
DET_EPS = 1e-12
#: the fewest proposals :func:`sample_fiber` draws at once
_BLOCK = 8
#: the most proposals :func:`sample_fiber` draws at once, and so the longest
#: path :func:`_walk` checks in one kernel call
_DRAWS = 1024
#: step-size factor of :func:`sample_fiber` after a rejection
_SHRINK = 2.0 ** (-1.0 / 3.0)
#: float64 machine epsilon, the unit of the rounding bound of :func:`_points`
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MixingMatrix:
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
        if not np.isfinite(q).all():
            raise InvalidParameter("q contains non-finite entries")
        sums = q.sum(axis=1)
        if (np.abs(sums - 1.0) > SUM_TOL).any():
            which = int(np.flatnonzero(np.abs(sums - 1.0) > SUM_TOL)[0])
            raise InvalidParameter(
                f"row {which} of q sums to {float(sums[which])!r}, not 1"
            )
        det = float(np.linalg.det(q))
        if abs(det) <= DET_EPS:
            raise SingularMixing(f"|det q| = {abs(det):.3e} <= {DET_EPS}")
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


class _Mixed(NamedTuple):
    """The action of a stack of K mixing matrices, stack axis first.

    ``a`` and ``b`` are a q^{-1} and q b before clamping.  ``bad`` marks a q
    that :class:`MixingMatrix` rejects with :class:`InvalidParameter` (a
    non-finite entry or a row sum off 1); ``valid`` marks a q with
    |det| > DET_EPS whose action passes the clamp test of
    :func:`_clamp_rows`.  A bad or singular q is replaced by the identity
    before solving, so its ``a`` and ``b`` are placeholders.
    """

    a: np.ndarray       # (K, r1, r2)
    b: np.ndarray       # (K, r2, r3)
    bad: np.ndarray     # (K,)
    valid: np.ndarray   # (K,)


def _mix(params: ChainParams, qs: np.ndarray) -> _Mixed:
    """Apply every matrix of the stack ``qs`` (K, r2, r2) to ``params``.

    Each member gets exactly the arithmetic of a stack of one: the same
    determinant, the same analytic inverse for r2 = 2 and the same LAPACK
    solve otherwise, so results do not depend on the other members.
    """
    count, r2 = qs.shape[:2]
    # the placeholders may divide by zero where the serial checks would
    # have stopped first
    with np.errstate(divide="ignore", invalid="ignore"):
        # a non-finite entry makes its row sum non-finite, so one test
        # covers both checks of MixingMatrix
        bad = ~(np.abs(qs.sum(axis=2) - 1.0) <= SUM_TOL).all(axis=1)
        det = np.linalg.det(qs)
        invertible = ~bad & (np.abs(det) > DET_EPS)
        if not invertible.all():
            qs = np.where(invertible[:, None, None], qs, np.eye(r2))
        if r2 == 2:
            # analytic inverse keeps boundary zeros exact: row i of a q^{-1}
            # is ((a_i0 - rho)/(pi - rho), (pi - a_i0)/(pi - rho))
            pi, rho = qs[:, 0, 0, None], qs[:, 1, 0, None]
            col = params.a[:, 0]
            a = np.empty((count, len(col), 2))
            a[:, :, 0] = (col - rho) / (pi - rho)
            a[:, :, 1] = (pi - col) / (pi - rho)
        else:
            a = np.linalg.solve(qs.transpose(0, 2, 1),
                                params.a.T).transpose(0, 2, 1)
        b = qs @ params.b
        # the clamp tests of a and b reject a worst entry below -CLAMP_EPS,
        # never a NaN, which fmin passes over
        valid = invertible & ~(np.fmin(a.min(axis=(1, 2)), b.min(axis=(1, 2)))
                               < -CLAMP_EPS)
    return _Mixed(a, b, bad, valid)


def _snap(rows: np.ndarray) -> np.ndarray:
    """Snap entries in [-CLAMP_EPS, 0], -0.0 included, to exact zero and
    renormalise along the last axis: every entry the clamp test accepts
    ends nonnegative."""
    out = rows.copy()
    out[(out >= -CLAMP_EPS) & (out <= 0.0)] = 0.0
    return out / out.sum(axis=-1, keepdims=True)


def _clamp_rows(name: str, rows: np.ndarray) -> np.ndarray:
    """Snap roundoff negatives to exact zero, reject real ones, renormalise."""
    worst = float(rows.min())
    if worst < -CLAMP_EPS:
        idx = tuple(int(x) for x in np.argwhere(rows == rows.min())[0])
        raise InvalidMixing(name, idx, worst)
    return _snap(rows)


def _points(params: ChainParams, a: np.ndarray, b: np.ndarray) -> list[ChainParams]:
    """The points (params.p1, a[k], b[k]) for stacks of rows ``a`` and ``b``
    that :func:`_snap` built from kernel results that passed the clamp test.

    Equal to ``ChainParams(params.shape, params.p1, a[k], b[k])``, but they
    share ``params.shape`` and the frozen ``params.p1``, freeze ``a`` and
    ``b`` in place and skip the checks the construction proves.  The
    shapes are those of ``params``.  If the snapped array holds no NaN,
    neither did its input (a NaN spreads along its row through the row
    sum), so the clamp test saw its true minimum and every entry became
    >= 0.  Each row was then divided by its own sum s: if s overflowed, the
    row is all zeros; otherwise it sums to 1 within (r - 1/2) eps <
    (r + 1) eps to first order, for rows of length r ((r - 1) eps / 2 each
    from the sum s and from summing the quotients, eps / 2 from the
    division).  A NaN makes a stack's sum NaN, and an all-zero row takes
    it about 1 below its N rows (the rest, and their sum, are off by about
    2 N r eps), so one sum per factor rules both out.  Where it does not,
    or (r + 1) eps exceeds ``model.SUM_TOL`` read at call time, every point
    goes through :class:`ChainParams`, whose checks raise the error of the
    first point that fails one.
    """
    for rows in (a, b):
        if not (abs(float(rows.sum()) - len(rows) * rows.shape[1]) <= 0.5
                and (rows.shape[2] + 1) * _EPS <= model.SUM_TOL):
            return [ChainParams(params.shape, params.p1, *ab) for ab in zip(a, b)]
    a.flags.writeable = b.flags.writeable = False
    points = [object.__new__(ChainParams) for _ in range(len(a))]
    for point, ak, bk in zip(points, a, b):
        # the fields a frozen dataclass's __init__ would set, in one update
        point.__dict__.update(shape=params.shape, p1=params.p1, a=ak, b=bk)
    return points


def apply_mixing(params: ChainParams, q: MixingMatrix) -> ChainParams:
    """Transform the parameters along the fiber: a' = a q^{-1}, b' = q b.

    The observed (Y1, Y3) marginal is exactly invariant because the factors
    cancel inside the matrix product.  Entries of a' or b' in
    [-1e-12, 0) are snapped to exact zero and the row renormalised; larger
    negativity means q left the validity polytope and raises
    :class:`InvalidMixing` with the most violated entry.  This is the
    stacked kernel behind :func:`sample_fiber` and
    :func:`~latentgeom.likelihood.profile_along_fiber` run on a stack of
    one, so all three give the same bits for the same q.  A singular q
    never gets here: :class:`MixingMatrix` rejects it.
    """
    r2 = params.shape.r2
    if q.size != r2:
        raise InvalidParameter(f"q is {q.size} x {q.size}, model has r2 = {r2}")
    mixed = _mix(params, q.q[None])
    return _points(params, _clamp_rows("a", mixed.a[0])[None],
                   _clamp_rows("b", mixed.b[0])[None])[0]


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
    i_min = int(np.argmin(col))
    i_max = int(np.argmax(col))
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
    boundary and :class:`DegenerateInput` is raised.
    """
    b0, b1 = b[0], b[1]
    hi = np.flatnonzero(b0 < b1)
    lo = np.flatnonzero(b0 > b1)
    if not hi.size or not lo.size:
        raise DegenerateInput(
            "rows of p(Y3|Y2) do not straddle; no boundary mixing exists"
        )
    u_his = b1[hi] / (b1[hi] - b0[hi])
    u_los = b1[lo] / (b1[lo] - b0[lo])
    # ties go to the smallest column for u_hi and the largest for u_lo
    k_hi = int(hi[np.argmin(u_his)])
    k_lo = int(lo[lo.size - 1 - np.argmax(u_los[::-1])])
    u_hi, u_lo = u_his.min(), u_los.max()
    return u_lo, k_lo, u_hi, k_hi


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
    :class:`DegenerateInput`, as does a pinched region rho_max = pi_min,
    where the corner matrix would be singular.
    """
    if params.shape.r2 != 2:
        raise InvalidParameter("extreme mixings are defined for r2 = 2 only")
    if side not in ("a", "b"):
        raise InvalidParameter(f"side must be 'a' or 'b', got {side!r}")
    if side == "a":
        bounds = rho_pi_bounds(params)
        if bounds.rho_max <= 0.0 or bounds.pi_min >= 1.0:
            raise DegenerateInput(
                "p(Y2|Y1) already touches the boundary; no extreme vertex"
            )
        if bounds.pi_min == bounds.rho_max:
            raise DegenerateInput(
                "constant p(Y2 = 1|Y1): the validity rectangle pinches to a "
                "segment and the informative corner is singular"
            )
        pi, rho = bounds.pi_min, bounds.rho_max
        zeros = (("a", bounds.i_min, 0), ("a", bounds.i_max, 1))
        mirrored_zeros = (("a", bounds.i_max, 0), ("a", bounds.i_min, 1))
    else:
        if params.min_entry <= 0.0:
            raise DegenerateInput("b-side construction requires interior "
                                  "parameters")
        rho, k_lo, pi, k_hi = _b_side_interval(params.b)
        zeros = (("b", 0, k_hi), ("b", 1, k_lo))
        mirrored_zeros = (("b", 0, k_lo), ("b", 1, k_hi))
    return [
        ExtremeMixing(q=MixingMatrix.from_pi_rho(pi, rho), branch="main",
                      zeros=zeros),
        ExtremeMixing(q=MixingMatrix.from_pi_rho(rho, pi), branch="mirrored",
                      zeros=mirrored_zeros),
    ]


def _exits(params: ChainParams, draws: np.ndarray) -> np.ndarray:
    """The verdicts :func:`_walk` predicts for each direction M of ``draws``:
    rows (exit, lo, hi), where q = I + t M is predicted valid for t < exit or
    lo <= t <= hi.  The forms a (I + t C) + CLAMP_EPS (1 + t tr M)
    (C = tr(M) I - M is the t-term of adj q), 1 + t tr M - DET_EPS and the
    exact b + t M b + CLAMP_EPS are each c (1 + t s), c > 0, with a root
    t = -1 / s for s < 0 (inf for s >= 0); exit is the least root.  The
    first two are first order in t, and exact at r2 = 2, where
    det q = 1 + t tr M as det M = 0.  There the branch det q < -DET_EPS is
    valid too, where every a-side form is <= 0 and every b-side form >= 0:
    from lo, the largest root of the a-side forms and of 1 + t tr M + DET_EPS,
    to hi, the least b-side root.  For r2 >= 3, lo = hi = inf."""
    count, r2 = draws.shape[:2]
    trace = np.trace(draws, axis1=1, axis2=2)[:, None, None]
    a_side = ((params.a @ (trace * np.eye(r2) - draws) + CLAMP_EPS * trace)
              / (params.a + CLAMP_EPS)).reshape(count, -1)
    b_side = (draws @ params.b / (params.b + CLAMP_EPS)).reshape(count, -1)
    # the root of a slope is monotone in it: the least root is that of the
    # least slope, the largest that of the largest
    slopes = np.zeros((3, count))
    slopes[0] = np.concatenate([a_side, b_side, trace[:, 0] / (1.0 - DET_EPS)],
                               axis=1).min(axis=1)
    if r2 == 2:
        slopes[1] = np.concatenate([a_side, trace[:, 0] / (1.0 + DET_EPS)],
                                   axis=1).max(axis=1)
        slopes[2] = b_side.min(axis=1)
    with np.errstate(divide="ignore"):
        return np.where(slopes < 0.0, -1.0 / slopes, np.inf).T


def _walk(params: ChainParams, n: int, rng: np.random.Generator,
          cap: int) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`sample_fiber`'s walk: returns the unclamped a' and b' of the
    accepted proposals and the attempt count.  It accepts a step where
    :func:`_exits` predicts a valid q, checks that path in one kernel call
    and keeps it up to the first verdict the kernel overrules, or raises at
    a bad q.  A path no longer than twice the stretch last kept, or 8
    blocks, bounds the kernel work a misprediction wastes."""
    r2 = params.shape.r2
    rows = [(np.empty((0, *params.a.shape)), np.empty((0, *params.b.shape)))]
    t, got, attempts, exits, span = 0.5, 0, 0, [], _DRAWS
    while got < n and attempts < cap:
        if not exits:
            # about what the rest needs at the walk's 25% acceptance
            size = min(5 * (n - got) + _BLOCK, _DRAWS)
            draws = rng.standard_normal((size, r2, r2))
            draws -= draws.mean(axis=2, keepdims=True)
            exits = _exits(params, draws).tolist()
        steps, guesses, ahead = [], [], got
        for exit_t, lo, hi in exits[:min(span, cap - attempts)]:
            steps.append(t)
            guesses.append(ok := t < exit_t or lo <= t <= hi)
            t = min(t * 2.0, 4.0) if ok else max(t * _SHRINK, 1e-8)
            if ok and (ahead := ahead + 1) == n:
                break
        qs = np.eye(r2) + (np.array(steps)[:, None, None]
                           * draws[:len(steps)])
        mixed = _mix(params, qs)
        wrong = np.flatnonzero((mixed.valid != guesses) | mixed.bad)
        used = int(wrong[0]) + 1 if wrong.size else len(steps)
        if mixed.bad[used - 1]:
            MixingMatrix(qs[used - 1])    # raises the InvalidParameter
        keep = mixed.valid[:used]
        rows.append((mixed.a[:used][keep], mixed.b[:used][keep]))
        t = steps[used - 1]
        t = min(t * 2.0, 4.0) if keep[-1] else max(t * _SHRINK, 1e-8)
        got += int(np.count_nonzero(keep))
        attempts += used
        span = max(2 * used, 8 * _BLOCK)
        draws, exits = draws[used:], exits[used:]
    a, b = zip(*rows)
    return np.concatenate(a), np.concatenate(b), attempts


def sample_fiber(params: ChainParams, n: int, seed: int = 0) -> list[ChainParams]:
    """Draw n points of the fiber through ``params`` by rejection.

    Proposals are q = I + t M with M a seeded standard-normal matrix
    recentred to zero row sums; t adapts towards roughly 25% acceptance
    (doubled on acceptance, shrunk by 2^(-1/3) on rejection).  If fewer
    than n points are accepted within the cap of max(200, 100 n) attempts,
    a :class:`RejectionStall` warning reports the acceptance rate and the
    accepted points are returned as-is.

    One kernel call checks a whole path of predicted verdicts, and a
    verdict the kernel overrules ends the path there.  The accepted rows
    are snapped in one stack per factor, and the points, the attempt count,
    the warning and any error are exactly those of one attempt at a time.
    """
    _check_count("n", n, 0)
    _check_count("seed", seed, 0)
    if params.min_entry <= 0.0:
        raise BoundaryPoint("fiber sampling requires interior parameters")
    a, b, attempts = _walk(params, n, np.random.default_rng(seed),
                           max(200, 100 * n))
    # the accepted rows passed the clamp test: snapping is all that is left
    out = _points(params, _snap(a), _snap(b))
    if len(out) < n:
        warnings.warn(
            RejectionStall(
                f"accepted {len(out)}/{n} fiber points in {attempts} attempts "
                f"({len(out) / attempts:.1%} acceptance)"
            )
        )
    return out


def fiber_dimension(params: ChainParams) -> int:
    """Tangent dimension of the mixing orbit at the identity.

    The derivative of q -> (a q^{-1}, q b) at q = I in direction M is
    (-a M, M b), a linear map on the r2 (r2 - 1) dimensional space of
    zero-row-sum matrices; its numerical rank (relative cutoff 1e-8) is the
    orbit dimension.  M is in the kernel exactly when a M = 0 and M b = 0
    (M b = 0 already gives M 1 = M b 1 = 0), so where a and b have full rank
    the orbit dimension is r2 (r2 - 1) - (r2 - min(r1, r2)) (r2 - min(r2, r3)).
    That is ``dims(...).fiber`` when r2 <= min(r1, r3) or r2 >= max(r1, r3).
    When min(r1, r3) < r2 < max(r1, r3) it is smaller by
    (max(r1, r3) - r2) (r2 - min(r1, r3)): at 6x4x3 the orbit has dimension
    12 and the fiber 14, as the mixing action does not reach all of it.

    Parameters with boundary zeros raise :class:`BoundaryPoint`, except for
    one-sided degeneracy (p1 interior and exactly one of a, b interior),
    which is allowed with a warning since the rank may or may not drop.
    """
    p1_ok = params.p1.min() > INTERIOR_EPS
    a_ok = params.a.min() > INTERIOR_EPS
    b_ok = params.b.min() > INTERIOR_EPS
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
    eye = np.eye(r2)
    # the rows -a M and M b for the basis M = e_j (e_l - e_last)^T, l < last
    diffs = eye[:-1] - eye[-1]
    minus_am = np.einsum("ij,lc->jlic", -params.a, diffs)
    mb = np.einsum("jJ,lk->jlJk", eye, params.b[:-1] - params.b[-1])
    count = r2 * (r2 - 1)
    return _numerical_rank(np.hstack([minus_am.reshape(count, -1),
                                      mb.reshape(count, -1)]))
