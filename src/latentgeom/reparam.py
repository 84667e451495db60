"""The delta/lambda reparametrisation and closed-form fiber solvers.

Every joint table factors as theta(i, j, k) = delta(i, k) lambda_j(i, k)
with delta the observed (Y1, Y3) marginal and lambda_j(i, k) the hidden
conditional p(Y2 = j | Y1 = i, Y3 = k).  In these coordinates the
conditional-independence quadrics only couple the lambdas through the
cross-ratios of the marginal, which is what makes the small cases solvable
in closed form:

* r1 = r2 = r3 = 2: fixing lambda(2,1) = c1 and lambda(1,2) = c2 leaves a
  line and a rectangular hyperbola in the (lambda(1,1), lambda(2,2)) plane
  whose 0, 1 or 2 intersection points are the whole fiber slice.
* r1 = r3 = 3, r2 = 2: the eight quadrics determine all nine lambda values
  from (lambda(2,1), lambda(2,2)) by sequential elimination, provided the
  marginal satisfies the rank-2 identity
  z1 z4 - z2 z3 = (z1 + z4) - (z2 + z3),
  i.e. det [[1,1,1],[1,z1,z2],[1,z3,z4]] = 0.

Off that identity the solution set degenerates onto the boundary of the
lambda cube: one row of conditionals pinned at 0 or 1 and the rest scaled
by reciprocal cross-ratios (``degenerate_family_323``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import (
    InvalidParameter,
    NoRealSolution,
    OffVariety,
    OutOfUnitBox,
    SingularDenominator,
    ZeroCell,
)
from .model import (
    CLAMP_EPS,
    DET_EPS,
    IDENTITY_TOL,
    RESIDUAL_TOL,
    JointTable,
    MarginalTable,
    Shape,
    _Value,
    _check_rows,
    _check_shape,
    _fields_eq,
    _frozen,
    _quotient_rows_pass,
    _reals,
    _ref_cell,
    _ref_frame,
    marginal_13,
)
from .shapes import _integer_pair


def _check_unit(**values: float) -> None:
    """Refuse the first named value outside [0, 1], or a NaN."""
    for name, v in values.items():
        if not (0.0 <= v <= 1.0):
            raise InvalidParameter(f"{name} must lie in [0, 1], got {v!r}")


def _outside_unit_box(values) -> int | None:
    """Position of the first float of ``values`` below -CLAMP_EPS or above
    1 + CLAMP_EPS, or None (a NaN is not): the closed-form solvers' box test."""
    return next((n for n, v in enumerate(values)
                 if v < -CLAMP_EPS or v > 1.0 + CLAMP_EPS), None)


@dataclass(frozen=True)
class LambdaField(_Value):
    """Hidden conditionals lambda_j(i, k), stored as values[i, k, j].

    For every (i, k) the j-slice is a probability vector, which the row
    test of the value types checks; nothing is clipped.  Cells where the
    generating marginal had delta(i, k) = 0 carry no information; they are
    filled uniformly and flagged in ``unconstrained``.
    """

    shape: Shape
    values: np.ndarray
    unconstrained: np.ndarray = field(default=None)

    __eq__ = _fields_eq

    def __post_init__(self):
        r1, r2, r3 = self.shape.astuple()
        values = _reals(self.values, "lambda values must be real numbers")
        _check_shape("values", values, (r1, r3, r2))
        values = _check_rows("values", values)
        flags = self.unconstrained
        flags = np.zeros((r1, r3), bool) if flags is None else np.asarray(flags)
        if flags.dtype != bool:
            raise InvalidParameter("unconstrained flags must be booleans")
        _check_shape("unconstrained", flags, (r1, r3))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "unconstrained", _frozen(flags, dtype=bool))


def split(joint: JointTable) -> tuple[MarginalTable, LambdaField]:
    """Factor a joint table into its marginal and hidden conditionals.

    Where delta(i, k) = 0 the conditional is undefined; those slices are
    set uniform and flagged so downstream code cannot mistake the filler
    for information.

    The checked joint proves the field, which is not checked again, and
    its new arrays are frozen in place.  A rounded sum of entries >= 0 is
    at least each of them, so each theta(i, j, k) / delta(i, k) lies in
    [0, 1]; each slice is divided by delta(i, k), its rounded sum, so it
    passes the row-sum rule where :func:`~latentgeom.model._quotient_rows_pass`
    holds for r2, as does a slice of r2 entries 1 / r2.  Elsewhere
    :class:`LambdaField` checks the field.
    """
    r1, r2, r3 = joint.shape.astuple()
    marginal = marginal_13(joint)
    delta = marginal.cells
    zero = delta == 0.0
    interior = np.minimum.reduce(delta, None) > 0.0
    safe = delta if interior else np.where(zero, 1.0, delta)
    lam = np.divide(joint.cells.transpose(0, 2, 1), safe[:, :, None], order="C")
    if not interior:
        lam[zero] = 1.0 / r2
    if not _quotient_rows_pass(r2):
        return marginal, LambdaField(joint.shape, lam, zero)
    lam.flags.writeable = zero.flags.writeable = False
    return marginal, LambdaField._checked(joint.shape, lam, zero)


def merge(marginal: MarginalTable, lambdas: LambdaField) -> JointTable:
    """Inverse of :func:`split`: theta(i, j, k) = delta(i, k) lambda_j(i, k).

    The checked marginal and field prove the table: entries >= 0, summing
    to 1 within 2 ``SUM_TOL`` plus rounding.  It is written in C order."""
    r1, r2, r3 = lambdas.shape.astuple()
    if marginal.shape != (r1, r3):
        raise InvalidParameter(
            f"marginal shape {marginal.shape} does not match lambda field "
            f"({r1}, {r3})"
        )
    cells = np.multiply(marginal.cells[:, None, :], lambdas.values.transpose(0, 2, 1), order="C")
    cells.flags.writeable = False
    return JointTable._checked(lambdas.shape, cells)


def _check_ratios(values: np.ndarray) -> None:
    """Refuse cross-ratios that are not all finite and above 0; a NaN
    fails, an empty table passes."""
    if not (0.0 < np.minimum.reduce(values, None, initial=np.inf)
            and np.maximum.reduce(values, None, initial=0.0) < np.inf):
        raise InvalidParameter("cross-ratios must be finite and positive")


@dataclass(frozen=True)
class CrossRatios(_Value):
    """Cross-ratios z(i, k) of a marginal relative to a reference cell.

    z(i, k) = delta(I, K) delta(i, k) / (delta(I, k) delta(i, K)) for
    i != I, k != K, stored as an (r1 - 1) x (r3 - 1) table with rows and
    columns in ascending original-index order.  All values are finite and
    positive; construction rejects marginals with zero cells.

    For a 3 x 3 marginal with any reference cell the four entries are
    exposed as z1 = values[0, 0], z2 = values[0, 1], z3 = values[1, 0],
    z4 = values[1, 1].
    """

    marginal_shape: tuple[int, int]
    ref_cell: tuple[int, int]
    values: np.ndarray

    __eq__ = _fields_eq

    def __post_init__(self):
        r1, r3 = _integer_pair(self.marginal_shape, "marginal shape")
        ref = _ref_cell(self.ref_cell, r1, r3)
        values = _reals(self.values, "cross-ratios must be real numbers")
        _check_shape("values", values, (r1 - 1, r3 - 1))
        _check_ratios(values)
        object.__setattr__(self, "marginal_shape", (r1, r3))
        object.__setattr__(self, "ref_cell", ref)
        object.__setattr__(self, "values", _frozen(values))

    @property
    def rows(self) -> tuple[int, ...]:
        """Original row indices, in table order."""
        return tuple(i for i in range(self.marginal_shape[0]) if i != self.ref_cell[0])

    @property
    def cols(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.marginal_shape[1]) if k != self.ref_cell[1])

    def _named(self, idx: int) -> float:
        if self.values.shape != (2, 2):
            raise InvalidParameter(
                "named cross-ratios z1..z4 require a 3 x 3 marginal"
            )
        return float(self.values.ravel()[idx])

    @property
    def z1(self) -> float:
        return self._named(0)

    @property
    def z2(self) -> float:
        return self._named(1)

    @property
    def z3(self) -> float:
        return self._named(2)

    @property
    def z4(self) -> float:
        return self._named(3)


def cross_ratios(marginal: MarginalTable,
                 ref_cell: tuple[int, int] = (0, 0)) -> CrossRatios:
    """Cross-ratio table of a strictly positive marginal.

    Raises :class:`ZeroCell` naming the first offending cell if any entry
    involved in a ratio (in practice: any cell of the table) is zero.

    The marginal proves the table's shape and the reference cell is checked
    here, so of :class:`CrossRatios`' checks only the finite-and-positive
    test is left, which an underflow or an overflow can fail.
    """
    r1, r3 = marginal.shape
    ref = _ref_cell(ref_cell, r1, r3)
    d = marginal.cells
    if not np.minimum.reduce(d, None) > 0.0:    # the cells are checked: >= 0
        zero = np.argwhere(d == 0.0)[0]
        raise ZeroCell((int(zero[0]), int(zero[1])))
    rows, cols = _ref_frame(ref, r1, r3)
    d = d[rows, cols]
    # products that underflow to 0 are refused below, without a warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = d[0, 0] * d[1:, 1:] / (d[0, None, 1:] * d[1:, 0, None])
    _check_ratios(values)
    values.flags.writeable = False
    return CrossRatios._checked((r1, r3), ref, values)


@dataclass(frozen=True)
class BinaryFiberSolution:
    """Intersection points of the binary fiber slice at fixed (z, c1, c2).

    ``points`` holds the (lambda(1,1), lambda(2,2)) pairs, sorted ascending
    by first coordinate; when there are two they are coordinate swaps of
    each other, the algebraic footprint of latent-label aliasing.
    """

    z: float
    c1: float
    c2: float
    points: tuple[tuple[float, float], ...]


def _sum_product(z: float, c1: float, c2: float) -> tuple[float, float]:
    """S and P of :func:`binary_fiber_solve`, with a -0.0 product as 0.0."""
    return 1.0 - (1.0 - c1 - c2) / z, max(0.0, c1 * c2 / z)


def binary_fiber_solve(z: float, c1: float, c2: float) -> BinaryFiberSolution:
    """Solve the binary fiber slice with lambda(2,1) = c1, lambda(1,2) = c2.

    The two conditional-independence quadrics reduce to a symmetric
    sum/product system for u = lambda(1,1) and v = lambda(2,2):

        u + v = 1 - (1 - c1 - c2) / z
        u * v = c1 c2 / z

    so u, v are the roots of x^2 - S x + P.  A negative discriminant means
    the (z, c1, c2) triple is inconsistent with the model
    (:class:`NoRealSolution`); real roots outside [0, 1] raise
    :class:`OutOfUnitBox` with the roots attached.  A z so small that S, P
    or the discriminant overflows raises :class:`InvalidParameter`.
    """
    if not (math.isfinite(z) and z > 0):
        raise InvalidParameter(f"z must be a positive real, got {z!r}")
    _check_unit(c1=c1, c2=c2)
    s, p = _sum_product(z, c1, c2)
    disc = s * s - 4.0 * p
    if not math.isfinite(disc):  # also when s or p overflowed
        raise InvalidParameter(
            f"z = {z!r} is too small at c1 = {c1!r}, c2 = {c2!r}: "
            "the fiber quadratic overflows")
    if disc < 0.0:
        raise NoRealSolution(
            f"negative discriminant {disc:.17g}: no real solution")
    sq = math.sqrt(disc)
    if s >= 0.0:
        u = 0.5 * (s + sq)
    else:
        u = 0.5 * (s - sq)
    v = p / u if u != 0.0 else 0.0
    lo, hi = (u, v) if u <= v else (v, u)
    if (n := _outside_unit_box((lo, hi))) is not None:
        which = ("smaller root", "larger root")[n]
        raise OutOfUnitBox(f"{which} = {(lo, hi)[n]:.17g} lies outside "
                           f"[0, 1] (roots {(lo, hi)})")
    # max(0.0, x), not max(x, 0.0), so that a -0.0 root becomes 0.0
    lo = min(max(0.0, lo), 1.0)
    hi = min(max(0.0, hi), 1.0)
    points = ((lo, hi),) if lo == hi else ((lo, hi), (hi, lo))
    return BinaryFiberSolution(z=z, c1=c1, c2=c2, points=points)


def binary_surface(lam12: float, lam22: float, z: float) -> tuple[float, float]:
    """Complete (lambda(1,2), lambda(2,2)) to (lambda(2,1), lambda(1,1)).

    With N = 1 - lam12 - z (1 - lam22) and D = lam22 - lam12,

        lambda(2,1) = N lam22 / D
        lambda(1,1) = N lam12 / (z D)

    which satisfies both binary quadrics identically.  The output lies in
    [0, 1]^2 exactly when z sits strictly inside the window bounded by
    lam12/lam22 and (1 - lam12)/(1 - lam22); the failing inequality is
    named in :class:`OutOfUnitBox`.  z = 1 is the degenerate quadric
    (marginal independence): the formulas' continuous limit
    (lam22, lam12) is returned rather than an error.  An exactly equal
    pair lam22 = lam12 with z != 1 admits no solution at all
    (:class:`SingularDenominator`).
    """
    _check_unit(lam12=lam12, lam22=lam22)
    if not (math.isfinite(z) and z > 0):
        raise InvalidParameter(f"z must be a positive real, got {z!r}")
    if z == 1.0:
        # degenerate quadric: lambda(2,1) = lambda(2,2), lambda(1,1) = lambda(1,2)
        return (lam22, lam12)
    if lam22 == lam12:
        raise SingularDenominator(
            f"lam22 = lam12 = {lam22:.17g} with z = {z:.17g} != 1")
    if lam22 > lam12:
        if not z * lam22 > lam12:
            raise OutOfUnitBox(
                "constraint violated: lam22 > lam12 requires z > lam12/lam22 "
                f"(z = {z:.17g}, lam12/lam22 = {lam12 / lam22:.17g})")
        if not z * (1.0 - lam22) < 1.0 - lam12:
            raise OutOfUnitBox(
                "constraint violated: lam22 > lam12 requires "
                f"z < (1 - lam12)/(1 - lam22) (z = {z:.17g})")
    else:
        if not z * lam22 < lam12:
            raise OutOfUnitBox(
                "constraint violated: lam22 < lam12 requires z < lam12/lam22 "
                f"(z = {z:.17g}, lam12/lam22 = {lam12 / lam22:.17g})")
        if not z * (1.0 - lam22) > 1.0 - lam12:
            raise OutOfUnitBox(
                "constraint violated: lam22 < lam12 requires "
                f"z > (1 - lam12)/(1 - lam22) (z = {z:.17g})")
    num = 1.0 - lam12 - z * (1.0 - lam22)
    den = lam22 - lam12
    lam21 = num * lam22 / den
    lam11 = num * lam12 / (z * den)
    # the strict window guarantees the box; clip float dust only
    lam21 = min(max(lam21, 0.0), 1.0)
    lam11 = min(max(lam11, 0.0), 1.0)
    return (lam21, lam11)


def marginal_identity_323(z: CrossRatios) -> float:
    """Rank-2 compatibility residual of a 3 x 3 marginal.

    Returns z1 z4 - z2 z3 - (z1 + z4) + (z2 + z3), which equals
    det [[1, 1, 1], [1, z1, z2], [1, z3, z4]]: zero exactly when the
    positive marginal has matrix rank <= 2, a necessary condition for a
    two-state hidden variable.  Whether it is also sufficient for a
    stochastic factorisation is decided numerically elsewhere, not here.
    """
    if z.values.shape != (2, 2):
        raise InvalidParameter("identity requires a 3 x 3 marginal's cross-ratios")
    (z1, z2), (z3, z4) = z.values.tolist()
    return z1 * z4 - z2 * z3 - (z1 + z4) + (z2 + z3)


def _quadric_residuals_323(z: CrossRatios, lam: list) -> list[float]:
    """The eight quadric residuals in z-form for a 3 x 3 x 2 lambda slice.

    ``lam[i][k]`` is the first-component conditional in the frame where the
    reference cell is (0, 0), a float.  For each (i, k) in {1, 2}^2:

        z(i,k) lam(0,0) lam(i,k) - lam(0,k) lam(i,0)          (j = 1)
        z(i,k) (1-lam(0,0))(1-lam(i,k)) - (1-lam(0,k))(1-lam(i,0))  (j = 2)
    """
    out = []
    for i, zrow in zip((1, 2), z.values.tolist()):
        for k, zz in zip((1, 2), zrow):
            out.append(zz * lam[0][0] * lam[i][k] - lam[0][k] * lam[i][0])
            out.append(zz * (1 - lam[0][0]) * (1 - lam[i][k])
                       - (1 - lam[0][k]) * (1 - lam[i][0]))
    return out


def _field_from_first_component(shape: Shape, z: CrossRatios, lam) -> LambdaField:
    """The field of first components ``lam`` (3 x 3, in the frame of ``z``)
    and second components 1 - lam, built once on the proof that ``lam``
    lies in [0, 1], as :func:`solve_fiber_323` makes it: so does each
    1 - lam, each slice lam + (1 - lam) sums to 1 within eps (eps / 2 from
    the subtraction and from the sum), and no cell is unconstrained."""
    values = np.empty((3, 3, 2))
    rows, cols = _ref_frame(z.ref_cell, 3, 3)
    values[rows, cols, 0] = lam
    values[:, :, 1] = 1.0 - values[:, :, 0]
    values.flags.writeable = False
    return LambdaField._checked(shape, values, _frozen(np.zeros((3, 3)), bool))


def solve_fiber_323(z: CrossRatios, lam21: float, lam22: float) -> LambdaField:
    """Recover all nine hidden conditionals of a 3 x 3 marginal with a
    two-state hidden variable from the two free ones.

    The frame is relabelled so the reference cell is (0, 0); ``lam21`` and
    ``lam22`` are the first-component conditionals at (row 1, col 0) and
    (row 1, col 1).  Each quadric pair is linear in its remaining unknown
    once lambda(0,0) is eliminated from the first pair, so the system is
    solved by sequential elimination:

        L00 = lam21 [1 - lam21 - z1 (1 - lam22)] / (z1 (lam22 - lam21))
        L01 = lam22 [1 - lam21 - z1 (1 - lam22)] / (lam22 - lam21)
        L12 = lam21 [1 - lam21 - z2 (1 - L00)] / (z2 (L00 - lam21))
        L02 = L00   [1 - lam21 - z2 (1 - L00)] / (L00 - lam21)
        L21 = L01   [1 - L01 - z3 (1 - L00)] / (z3 (L00 - L01))
        L20 = L00   [1 - L01 - z3 (1 - L00)] / (L00 - L01)
        L22 = L02 L20 / (z4 L00)

    The final pair is overdetermined; its second equation closes exactly
    when the marginal satisfies the rank-2 identity, which is required on
    entry (``OffVariety``) and re-verified on the solved field.  Vanishing
    denominators are named in :class:`SingularDenominator`; solutions that
    leave [0, 1] name the coordinate in :class:`OutOfUnitBox`.  The fully
    independent marginal (all z = 1) with equal free parameters yields the
    constant field.

    The nine values are Python floats, with the bits of float64
    arithmetic, until the field is written.  The free values are checked
    to lie in [0, 1]; the solved ones pass :func:`_outside_unit_box` and are
    clipped into it before the residual test, which a NaN in any fails.
    """
    if z.values.shape != (2, 2):
        raise InvalidParameter("solver requires a 3 x 3 marginal's cross-ratios")
    _check_unit(lam21=lam21, lam22=lam22)
    (z1, z2), (z3, z4) = z.values.tolist()
    scale = max(1.0, z1, z2, z3, z4)    # the cross-ratios are positive
    ident = marginal_identity_323(z)
    if not (abs(ident) <= IDENTITY_TOL * scale):    # a NaN fails too
        raise OffVariety(f"marginal identity residual {ident:.17g} exceeds "
                         f"tolerance {IDENTITY_TOL * scale:.17g}")
    shape = Shape(3, 2, 3)

    if max(abs(z1 - 1), abs(z2 - 1), abs(z3 - 1), abs(z4 - 1)) < DET_EPS \
            and abs(lam22 - lam21) < DET_EPS:
        # independence: the row-constant completion is the canonical solution
        return _field_from_first_component(shape, z, [[lam21] * 3] * 3)

    def checked_div(num: float, den: float, name: str) -> float:
        if abs(den) < DET_EPS:
            raise SingularDenominator(
                f"denominator {name} = {den:.17g} is too close to zero")
        return num / den

    phi1 = 1.0 - lam21 - z1 * (1.0 - lam22)
    l00 = checked_div(lam21 * phi1, z1 * (lam22 - lam21),
                      "z1 (lam(2,2) - lam(2,1))")
    l01 = checked_div(lam22 * phi1, lam22 - lam21, "lam(2,2) - lam(2,1)")
    phi2 = 1.0 - lam21 - z2 * (1.0 - l00)
    l12 = checked_div(lam21 * phi2, z2 * (l00 - lam21),
                      "z2 (lam(1,1) - lam(2,1))")
    l02 = checked_div(l00 * phi2, l00 - lam21, "lam(1,1) - lam(2,1)")
    phi3 = 1.0 - l01 - z3 * (1.0 - l00)
    l21 = checked_div(l01 * phi3, z3 * (l00 - l01), "z3 (lam(1,1) - lam(1,2))")
    l20 = checked_div(l00 * phi3, l00 - l01, "lam(1,1) - lam(1,2)")
    l22 = checked_div(l02 * l20, z4 * l00, "z4 lam(1,1)")
    lam = [[l00, l01, l02], [lam21, lam22, l12], [l20, l21, l22]]

    if (n := _outside_unit_box(v for row in lam for v in row)) is not None:
        raise OutOfUnitBox(f"lam({n // 3 + 1},{n % 3 + 1}) = "
                           f"{lam[n // 3][n % 3]:.17g} lies outside [0, 1]")
    # into [0, 1], keeping -0.0 and a NaN
    lam = [[min(max(v, 0.0), 1.0) for v in row] for row in lam]

    worst = max(map(abs, _quadric_residuals_323(z, lam)),
                key=lambda r: (r != r, r))      # a NaN first, and it fails
    if not worst <= RESIDUAL_TOL * scale:
        raise OffVariety(f"marginal identity residual {worst:.17g} exceeds "
                         f"tolerance {RESIDUAL_TOL * scale:.17g}")
    return _field_from_first_component(shape, z, lam)


def quadric_residuals_323(z: CrossRatios, lambdas: LambdaField) -> np.ndarray:
    """Evaluate the eight z-form quadric residuals on a full lambda field."""
    if lambdas.shape.astuple() != (3, 2, 3):
        raise InvalidParameter("residuals require shape (3, 2, 3)")
    if z.values.shape != (2, 2):
        raise InvalidParameter("residuals require a 3 x 3 marginal's cross-ratios")
    rows, cols = _ref_frame(z.ref_cell, 3, 3)
    lam = lambdas.values[rows, cols, 0]
    return np.array(_quadric_residuals_323(z, lam.tolist()))


def degenerate_family_323(z: CrossRatios, lam21: float, lam31: float,
                          branch: Literal["ones", "zeros"] = "ones") -> LambdaField:
    """One member of the boundary family that exists for any positive z.

    Pinning the reference row of one latent component to 1 satisfies every
    quadric regardless of the marginal; the other two rows are then scaled
    by reciprocal cross-ratios from their free first-column values
    ``lam21`` and ``lam31``:

        mu(row1, col_k) = lam21 / z[0, k]      mu(row2, col_k) = lam31 / z[1, k]

    With ``branch = "ones"`` the pinned component is the second latent
    state, so merging with any compatible marginal puts structural zeros in
    the first latent state's reference-row cells theta(I, 0, .).
    ``branch = "zeros"`` swaps the two latent labels.  Scaled values that
    leave [0, 1] raise :class:`OutOfUnitBox` naming the entry.
    """
    if z.values.shape != (2, 2):
        raise InvalidParameter("family requires a 3 x 3 marginal's cross-ratios")
    if branch not in ("ones", "zeros"):
        raise InvalidParameter(f"branch must be 'ones' or 'zeros', got {branch!r}")
    _check_unit(lam21=lam21, lam31=lam31)
    scaled = np.array([[lam21], [lam31]], dtype=float) / z.values
    if (n := _outside_unit_box(scaled.ravel().tolist())) is not None:
        raise OutOfUnitBox(f"lam({n // 2 + 2},{n % 2 + 2}) = "
                           f"{scaled.flat[n]:.17g} lies outside [0, 1]")
    mu = np.ones((3, 3))
    mu[1:, 0] = lam21, lam31
    mu[1:, 1:] = np.minimum(scaled, 1.0)
    pair = [1.0 - mu, mu] if branch == "ones" else [mu, 1.0 - mu]
    values = np.empty((3, 3, 2))
    rows, cols = _ref_frame(z.ref_cell, 3, 3)
    values[rows, cols] = np.stack(pair, axis=-1)
    return LambdaField(Shape(3, 2, 3), values)
