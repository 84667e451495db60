"""Parameter-space geometry of the hidden-middle chain model Y1 -> Y2 -> Y3.

The package computes model dimensions and conditional-independence
quadrics, parametrises the unidentifiable fiber (closed forms for the
binary and 3 x 2 x 3 cases, a mixing-matrix action in general), decides
marginal consistency, and demonstrates likelihood flat ridges and boundary
maxima on observed (Y1, Y3) counts.

Importing the package loads only :mod:`latentgeom.errors`.  Every other
public name, and each submodule named in ``_EXPORTS``, is imported on
first access (PEP 562), so a program pays only for the modules it uses.
:mod:`model` re-exports the shapes and ``dims`` of :mod:`latentgeom.shapes`,
which, unlike :mod:`model`, imports no numpy.
"""

import importlib

from . import errors

__version__ = "0.1.0"

#: each submodule and the public names it exports
_EXPORTS = {
    "errors": (
        "BoundaryPoint", "GeometryError", "InvalidMixing", "InvalidParameter",
        "NoRealSolution", "OffVariety", "OutOfUnitBox", "PathExitsPolytope",
        "SingularDenominator", "SingularMixing", "ZeroCell",
    ),
    "fiber": (
        "ExtremeMixing", "MixingMatrix", "RhoPiBounds", "apply_mixing",
        "extreme_mixings", "fiber_dimension", "rho_pi_bounds", "sample_fiber",
    ),
    "identifiability": (
        "ConsistencyReport", "consistency_check", "diagonal_marginal",
        "is_regular", "kl_divergence", "marginal_rank",
    ),
    "likelihood": (
        "CountTable", "EmFit", "ProfileTrace", "em_fit_details", "loglik",
        "permute_latent", "profile_along_fiber",
    ),
    "model": (
        "ChainParams", "Dims", "DimsCase", "JointTable", "MarginalTable",
        "Shape", "ci_residuals", "dims", "jacobian_rank", "joint_from_chain",
        "marginal_13", "random_chain",
    ),
    "reparam": (
        "BinaryFiberSolution", "CrossRatios", "LambdaField",
        "binary_fiber_solve", "binary_surface", "cross_ratios",
        "degenerate_family_323", "marginal_identity_323", "merge",
        "quadric_residuals_323", "solve_fiber_323", "split",
    ),
}

#: the submodule that defines each public name
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import a submodule of ``_EXPORTS``, or the submodule defining a
    public name, on first access and cache the result in the package.

    Any other name raises :class:`AttributeError`, which lets
    ``from latentgeom import cli`` fall back to importing the submodule.
    """
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
