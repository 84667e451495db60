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
    """The point sits where the operation is undefined: on the boundary,
    where it needs interior parameters, or on the fiber boundary, where no
    extreme vertex exists."""


class ZeroCell(GeometryError):
    """A marginal cell needed in a cross-ratio denominator is zero."""

    def __init__(self, cell: tuple[int, int]):
        self.cell = cell
        super().__init__(f"marginal cell (i={cell[0]}, k={cell[1]}) is zero (0-based)")


class NoRealSolution(GeometryError):
    """The fiber quadratic has a negative discriminant for the given inputs."""


class OutOfUnitBox(GeometryError):
    """A solved, scaled or completed coordinate leaves [0, 1]: a fiber
    solution, a free parameter of a degenerate family that pushes an entry
    out, or a binary surface point outside its validity window."""


class OffVariety(GeometryError):
    """Cross-ratios do not satisfy the rank-2 marginal identity."""


class SingularDenominator(GeometryError):
    """A denominator of a closed-form solver vanishes: a named one of the
    3 x 2 x 3 fiber solver, or the binary surface's at lam22 = lam12 with
    z != 1."""


class InvalidMixing(GeometryError):
    """A mixing matrix maps the parameters outside the validity polytope."""

    def __init__(self, matrix: str, index: tuple[int, ...], value: float):
        self.matrix = matrix
        self.index = index
        self.value = value
        super().__init__(
            f"transformed {matrix}{index} = {value:.17g} is negative beyond tolerance"
        )


class SingularMixing(GeometryError):
    """The mixing matrix is not invertible (|det| <= ``model.DET_EPS``)."""


class PathExitsPolytope(GeometryError):
    """A fiber path leaves the validity polytope before t = 1.

    Carries the valid prefix of the trace as ``(t, loglik, min_entry)``
    triples and ``exit_t``, the last valid path parameter before an exit.
    """

    def __init__(self, prefix, exit_t: float):
        self.prefix = tuple(prefix)
        self.exit_t = exit_t
        super().__init__(f"path exits the validity polytope at t = {exit_t:.17g}")


class RejectionStall(UserWarning):
    """Never issued: :func:`~latentgeom.fiber.sample_fiber` does not reject."""
