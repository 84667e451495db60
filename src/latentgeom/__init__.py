"""Parameter-space geometry of the hidden-middle chain model Y1 -> Y2 -> Y3.

The package computes model dimensions and conditional-independence
quadrics, parametrises the unidentifiable fiber (closed forms for the
binary and 3 x 2 x 3 cases, a mixing-matrix action in general), decides
marginal consistency, and demonstrates likelihood flat ridges and boundary
maxima on observed (Y1, Y3) counts.
"""

from .errors import (
    BoundaryPoint,
    ConstraintViolation,
    DegenerateInput,
    GeometryError,
    InvalidMixing,
    InvalidParameter,
    NoRealSolution,
    OffVariety,
    OutOfUnitBox,
    PathExitsPolytope,
    RejectionStall,
    SingularDenominator,
    SingularMixing,
    SingularPair,
    ZeroCell,
)
from .fiber import (
    ExtremeMixing,
    MixingMatrix,
    RhoPiBounds,
    apply_mixing,
    extreme_mixings,
    fiber_dimension,
    rho_pi_bounds,
    sample_fiber,
)
from .identifiability import (
    ConsistencyReport,
    consistency_check,
    diagonal_marginal,
    is_regular,
    kl_divergence,
    marginal_rank,
)
from .likelihood import (
    CountTable,
    EmFit,
    ProfileTrace,
    em_fit_details,
    loglik,
    permute_latent,
    profile_along_fiber,
)
from .model import (
    ChainParams,
    Dims,
    DimsCase,
    JointTable,
    MarginalTable,
    Shape,
    ci_residuals,
    dims,
    jacobian_rank,
    joint_from_chain,
    marginal_13,
    random_chain,
)
from .reparam import (
    BinaryFiberSolution,
    CrossRatios,
    LambdaField,
    binary_fiber_solve,
    binary_surface,
    cross_ratios,
    degenerate_family_323,
    marginal_identity_323,
    merge,
    quadric_residuals_323,
    solve_fiber_323,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryFiberSolution", "BoundaryPoint", "ChainParams", "ConsistencyReport",
    "ConstraintViolation", "CountTable", "CrossRatios", "DegenerateInput",
    "Dims", "DimsCase", "EmFit", "ExtremeMixing", "GeometryError",
    "InvalidMixing", "InvalidParameter", "JointTable", "LambdaField",
    "MarginalTable", "MixingMatrix", "NoRealSolution", "OffVariety",
    "OutOfUnitBox", "PathExitsPolytope", "ProfileTrace", "RejectionStall",
    "RhoPiBounds", "Shape", "SingularDenominator", "SingularMixing",
    "SingularPair", "ZeroCell", "apply_mixing", "binary_fiber_solve",
    "binary_surface", "ci_residuals", "consistency_check", "cross_ratios",
    "degenerate_family_323", "diagonal_marginal", "dims", "em_fit_details",
    "extreme_mixings", "fiber_dimension", "is_regular", "jacobian_rank",
    "joint_from_chain", "kl_divergence", "loglik", "marginal_13",
    "marginal_identity_323", "marginal_rank", "merge", "permute_latent",
    "profile_along_fiber", "quadric_residuals_323", "random_chain",
    "rho_pi_bounds", "sample_fiber", "solve_fiber_323", "split",
]
