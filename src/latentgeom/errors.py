"""Exception hierarchy and warnings.

Errors are semantic: callers should be able to branch on the class without
parsing messages.  Analysis findings that are legitimate outcomes (an
infeasible marginal, a quadratic with no real root) are still raised as
errors at the library level; the CLI turns them into report content.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(GeometryError, ValueError):
    """An input violates a documented type invariant (range, shape, sum),
    or two values that must share a shape do not."""


class BoundaryPoint(GeometryError):
    """An operation requiring strictly interior parameters met a boundary point."""


class ZeroCell(GeometryError):
    """A marginal cell needed in a cross-ratio denominator is zero."""

    def __init__(self, cell: tuple[int, int]):
        self.cell = cell
        super().__init__(f"marginal cell (i={cell[0]}, k={cell[1]}) is zero (0-based)")


class NoRealSolution(GeometryError):
    """The fiber quadratic has a negative discriminant for the given inputs."""

    def __init__(self, discriminant: float):
        self.discriminant = discriminant
        super().__init__(f"negative discriminant {discriminant:.17g}: no real solution")


class OutOfUnitBox(GeometryError):
    """A solved or scaled coordinate leaves [0, 1]: a fiber solution, or a
    free parameter of a degenerate family that pushes an entry out."""

    def __init__(self, coordinate: str, value: float, roots=None):
        self.coordinate = coordinate
        self.value = value
        self.roots = roots
        msg = f"{coordinate} = {value:.17g} lies outside [0, 1]"
        if roots is not None:
            msg += f" (roots {roots})"
        super().__init__(msg)


class ConstraintViolation(GeometryError):
    """A validity inequality of the binary surface fails."""

    def __init__(self, inequality: str):
        self.inequality = inequality
        super().__init__(f"constraint violated: {inequality}")


class SingularPair(GeometryError):
    """lam(2,2) = lam(1,2) with z != 1: the surface denominators vanish."""


class OffVariety(GeometryError):
    """Cross-ratios do not satisfy the rank-2 marginal identity."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"marginal identity residual {residual:.17g} exceeds tolerance {tol:.17g}"
        )


class SingularDenominator(GeometryError):
    """A named denominator of the closed-form fiber solver vanishes."""

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"denominator {name} = {value:.17g} is too close to zero")


class InvalidMixing(GeometryError):
    """A mixing matrix maps the parameters outside the validity polytope."""

    def __init__(self, matrix: str, index: tuple[int, int], value: float):
        self.matrix = matrix
        self.index = index
        self.value = value
        super().__init__(
            f"transformed {matrix}{index} = {value:.17g} is negative beyond tolerance"
        )


class SingularMixing(GeometryError):
    """The mixing matrix is not invertible (|det| <= 1e-12)."""


class DegenerateInput(GeometryError):
    """The parameters already sit on the fiber boundary; no extreme vertex exists."""


class PathExitsPolytope(GeometryError):
    """A fiber path leaves the validity polytope before t = 1.

    Carries the valid prefix of the trace as ``(t, loglik, min_entry)``
    triples together with the bisected exit parameter.
    """

    def __init__(self, prefix, exit_t: float):
        self.prefix = tuple(prefix)
        self.exit_t = exit_t
        super().__init__(f"path exits the validity polytope at t = {exit_t:.17g}")


class RejectionStall(UserWarning):
    """Fiber rejection sampling fell below the acceptance floor; partial output."""
