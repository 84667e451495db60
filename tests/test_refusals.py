"""Input refusals of the library, each pinned by its exception and message."""

import re

import numpy as np
import pytest

from latentgeom import (
    BoundaryPoint,
    ChainParams,
    ConsistencyReport,
    CountTable,
    CrossRatios,
    InvalidParameter,
    LambdaField,
    MarginalTable,
    MixingMatrix,
    ProfileTrace,
    Shape,
    ZeroCell,
    apply_mixing,
    binary_surface,
    ci_residuals,
    cross_ratios,
    degenerate_family_323,
    extreme_mixings,
    joint_from_chain,
    marginal_identity_323,
    quadric_residuals_323,
    random_chain,
    sample_fiber,
    solve_fiber_323,
)
from conftest import seeded_chain

NAN = float("nan")
#: the cross-ratios of the independent 3 x 3 marginal
Z_ONES = CrossRatios((3, 3), (0, 0), np.ones((2, 2)))
Z_2X2 = CrossRatios((2, 3), (0, 0), np.ones((1, 2)))
LAMBDAS_323 = LambdaField(Shape(3, 2, 3), np.full((3, 3, 2), 0.5))
LAMBDAS_222 = LambdaField(Shape(2, 2, 2), np.full((2, 2, 2), 0.5))
CHAIN = seeded_chain((3, 2, 3), 11)
BOUNDARY_CHAIN = ChainParams(Shape(2, 2, 2), [0.5, 0.5], [[0.0, 1.0], [0.6, 0.4]],
                             [[0.3, 0.7], [0.8, 0.2]])
EYE2 = MixingMatrix.identity(2)


def _trace(t=(0.0, 1.0), loglik=(-1.0, -1.0), min_entry=(0.1, 0.1)):
    return ProfileTrace(t=np.array(t), loglik=np.array(loglik),
                        min_entry=np.array(min_entry), start=CHAIN, q_end=EYE2)


def _report(feasible, divergence, checks):
    return ConsistencyReport(feasible, divergence, None, checks, None, 1e-8)


REFUSALS = {
    "counts shape": (lambda: CountTable((2, 3), [[1, 2], [3, 4]]),
                     InvalidParameter, "counts has shape (2, 2), expected (2, 3)"),
    "negative counts": (lambda: CountTable((2, 2), [[1, -2], [3, 4]]),
                        InvalidParameter, "counts must be nonnegative"),
    "zero total": (lambda: CountTable((2, 2), [[0, 0], [0, 0]]),
                   InvalidParameter, "total count must be >= 1"),
    "trace columns": (lambda: _trace(loglik=(-1.0,)), InvalidParameter,
                      "trace columns must be 1-d and equal length"),
    "trace order": (lambda: _trace(t=(1.0, 0.0)), InvalidParameter,
                    "path parameter must be strictly increasing"),
    "trace finite": (lambda: _trace(loglik=(-1.0, -np.inf)), InvalidParameter,
                     "trace entries must be finite"),
    "q not square": (lambda: MixingMatrix(np.full((2, 3), 1 / 3)),
                     InvalidParameter, "q must be square of size >= 2, got (2, 3)"),
    "q non-finite": (lambda: MixingMatrix([[np.inf, 0.0], [0.0, 1.0]]),
                     InvalidParameter, "q contains non-finite entries"),
    "q size": (lambda: apply_mixing(CHAIN, MixingMatrix.identity(3)),
               InvalidParameter, "q is 3 x 3, model has r2 = 2"),
    "extreme r2": (lambda: extreme_mixings(seeded_chain((3, 3, 3), 12)),
                   InvalidParameter, "extreme mixings are defined for r2 = 2 only"),
    "extreme side": (lambda: extreme_mixings(CHAIN, side="c"),
                     InvalidParameter, "side must be 'a' or 'b', got 'c'"),
    "sample boundary": (lambda: sample_fiber(BOUNDARY_CHAIN, 3), BoundaryPoint,
                        "fiber sampling requires interior parameters"),
    "lambda non-real": (lambda: LambdaField(Shape(2, 2, 2), [[["x"] * 2] * 2] * 2),
                        InvalidParameter, "lambda values must be real numbers"),
    "lambda non-finite": (lambda: LambdaField(Shape(2, 2, 2),
                                              [[[NAN, 0.5]] * 2] * 2),
                          InvalidParameter, "values contains non-finite values"),
    "cross-ratio non-real": (lambda: CrossRatios((2, 2), (0, 0), [[1j]]),
                             InvalidParameter, "cross-ratios must be real numbers"),
    "cross-ratio non-finite": (lambda: CrossRatios((2, 2), (0, 0), [[np.inf]]),
                               InvalidParameter,
                               "cross-ratios must be finite and positive"),
    "identity 3x3": (lambda: marginal_identity_323(Z_2X2), InvalidParameter,
                     "identity requires a 3 x 3 marginal's cross-ratios"),
    "solver 3x3": (lambda: solve_fiber_323(Z_2X2, 0.5, 0.5), InvalidParameter,
                   "solver requires a 3 x 3 marginal's cross-ratios"),
    "residuals 3x2x3": (lambda: quadric_residuals_323(Z_ONES, LAMBDAS_222),
                        InvalidParameter, "residuals require shape (3, 2, 3)"),
    "residuals 3x3": (lambda: quadric_residuals_323(Z_2X2, LambdaField(
        Shape(3, 2, 3), np.full((3, 3, 2), 0.5))), InvalidParameter,
        "residuals require a 3 x 3 marginal's cross-ratios"),
    "family 3x3": (lambda: degenerate_family_323(Z_2X2, 0.5, 0.5),
                   InvalidParameter,
                   "family requires a 3 x 3 marginal's cross-ratios"),
    "family branch": (lambda: degenerate_family_323(Z_ONES, 0.5, 0.5, "twos"),
                      InvalidParameter,
                      "branch must be 'ones' or 'zeros', got 'twos'"),
    "marginal shape": (lambda: MarginalTable((0, 2), np.zeros((0, 2))),
                       InvalidParameter, "invalid marginal shape (0, 2)"),
    "reference cell": (lambda: ci_residuals(joint_from_chain(CHAIN), (3, 0)),
                       InvalidParameter, "reference cell (3, 0) out of range"),
    "random chain": (lambda: random_chain(Shape(2, 2, 2),
                                          np.random.default_rng(0), 0.9),
                     InvalidParameter, "could not draw a row with min entry > 0.9"),
    # inputs that fail in more than one way name the first failure of the
    # checks in their documented order
    "lambda nan and 2": (lambda: LambdaField(Shape(2, 2, 2), [[[2.0, -1.0], [0.5, 0.5]],
                                                            [[NAN, 0.5], [0.5, 0.5]]]),
                         InvalidParameter, "values contains non-finite values"),
    "cross-ratio nan": (lambda: CrossRatios((2, 3), (0, 0), [[-1.0, NAN]]),
                        InvalidParameter, "cross-ratios must be finite and positive"),
    "q both infinities": (lambda: MixingMatrix([[0.3, 0.3], [np.inf, -np.inf]]),
                          InvalidParameter, "q contains non-finite entries"),
    "q off sum and singular": (lambda: MixingMatrix([[0.5, 0.5], [0.55, 0.55]]),
                               InvalidParameter, "row 1 of q sums to 1.1, not 1"),
    "cross-ratio zero cell": (lambda: cross_ratios(MarginalTable(
        (2, 3), [[0.2, 0.2, 0.0], [0.0, 0.3, 0.3]]), (1, 1)), ZeroCell,
        "marginal cell (i=0, k=2) is zero (0-based)"),
    # positive cells whose products underflow: x / 0, and 0 / 0, refused
    # without a warning
    "cross-ratio underflow": (lambda: cross_ratios(MarginalTable(
        (2, 2), [[0.5 - 1e-200, 1e-200], [1e-200, 0.5 - 1e-200]])),
        InvalidParameter, "cross-ratios must be finite and positive"),
    "cross-ratio underflow 0/0": (lambda: cross_ratios(MarginalTable(
        (3, 3), [[1e-170, 1e-170, 0.2], [1e-170, 1e-170, 0.2], [0.2, 0.2, 0.2]])),
        InvalidParameter, "cross-ratios must be finite and positive"),
    "feasible report": (lambda: _report(True, 1e-8, {"rank": True}),
                        InvalidParameter,
                        "feasible report requires divergence < tol"),
    "failed check": (lambda: _report(True, 0.0, {"rank": False}),
                     InvalidParameter,
                     "failed necessary check forces infeasibility"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_message(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_q_row_of_finite_entries_summing_to_nan_is_refused_by_its_sum():
    # numpy sums 8 entries pairwise, here (1e308 + 1e308) + (-1e308 - 1e308)
    # = inf - inf: the row-sum rule refuses a NaN sum as any sum off 1
    q = np.eye(8)
    q[0] = [1e308, 1e308, 0.0, 0.0, -1e308, -1e308, 0.0, 1.0]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvalidParameter, match=r"^row 0 of q sums to nan, not 1$"):
        MixingMatrix(q)


@pytest.mark.parametrize("value", [-0.5, 1.5, NAN])
@pytest.mark.parametrize("call, names", [
    (lambda x, y: binary_surface(x, y, 2.0), ("lam12", "lam22")),
    (lambda x, y: solve_fiber_323(Z_ONES, x, y), ("lam21", "lam22")),
    (lambda x, y: degenerate_family_323(Z_ONES, x, y), ("lam21", "lam31")),
], ids=["binary_surface", "solve_fiber_323", "degenerate_family_323"])
@pytest.mark.parametrize("which", [0, 1])
def test_reparam_arguments_outside_the_unit_interval(call, names, which, value):
    args = [0.5, 0.5]
    args[which] = value
    message = f"{names[which]} must lie in [0, 1], got {value!r}"
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        call(*args)
