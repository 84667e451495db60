"""Deciding whether an observed marginal admits a hidden-variable chain model.

A necessary check runs first and can prove infeasibility outright: the
marginal matrix must have ordinary rank <= r2 (it factors through an
r2-state variable).  The rank-2 cross-ratio identity of a positive 3 x 3
marginal equals delta00 det(delta) / (delta10 delta20 delta01 delta02), so
it vanishes exactly when the rank is <= 2 and is not checked separately.
When r2 >= min(r1, r3) the model imposes no constraint and an exact
witness is written down directly (copy the smaller observed variable into
the hidden one).  Otherwise a multistart EM search minimises
KL(target || model marginal); "infeasible" then means "not found within
budget" and the report distinguishes the two situations through
``proven_infeasible_by``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .likelihood import _ZeroResponsibility, _check_budget, _em_run
from .model import (
    ChainParams,
    MarginalTable,
    Shape,
    _numerical_rank,
    joint_from_chain,
    marginal_13,
)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a feasibility decision.

    ``feasible`` implies ``best_divergence < tol``; a failed necessary
    check forces infeasibility and is named in ``proven_infeasible_by``,
    while ``proven_infeasible_by = None`` with ``feasible = False`` only
    means the search budget was exhausted.
    """

    feasible: bool
    best_divergence: float
    witness: ChainParams | None
    necessary_checks: dict[str, bool]
    proven_infeasible_by: str | None
    tol: float

    def __post_init__(self):
        if self.feasible and not self.best_divergence < self.tol:
            raise InvalidParameter("feasible report requires divergence < tol")
        if any(not ok for ok in self.necessary_checks.values()) and self.feasible:
            raise InvalidParameter("failed necessary check forces infeasibility")


def diagonal_marginal(r1: int, r3: int) -> MarginalTable:
    """The deterministic-match marginal: delta(i, k) = 1/r1 when i = k.

    Its matrix rank is r1, so it is consistent with an r2-state hidden
    variable exactly when r2 >= r1; the witness is the chain that copies
    Y1 into Y2 into Y3.
    """
    if r3 < r1:
        raise InvalidParameter(f"requires r3 >= r1, got ({r1}, {r3})")
    cells = np.zeros((r1, r3))
    for i in range(r1):
        cells[i, i] = 1.0 / r1
    return MarginalTable((r1, r3), cells)


def marginal_rank(target: MarginalTable) -> int:
    """Ordinary matrix rank with the package-wide relative SVD cutoff."""
    return _numerical_rank(target.cells)


def kl_divergence(target: MarginalTable, model: MarginalTable) -> float:
    """KL(target || model) over the target's support; +inf on support escape.

    Rounding can push the sum of a near-exact fit a few ulps below zero;
    the result is clamped at 0, the divergence's true lower bound.
    """
    p = target.cells
    q = model.cells
    mask = p > 0.0
    if (q[mask] <= 0.0).any():
        return float("inf")
    kl = float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))
    return max(0.0, kl)


def _unconstrained_witness(target: MarginalTable, r2: int) -> ChainParams:
    """Exact parametrisation when r2 >= min(r1, r3): copy the smaller
    observed variable through the hidden one."""
    r1, r3 = target.shape
    delta = target.cells
    p1 = delta.sum(axis=1)
    shape = Shape(r1, r2, r3)
    if r2 >= r3:
        # Y2 carries Y3: a(i, j) = p(Y3 = j | Y1 = i), b deterministic
        a = np.zeros((r1, r2))
        for i in range(r1):
            if p1[i] > 0.0:
                a[i, :r3] = delta[i] / p1[i]
            else:
                a[i] = 1.0 / r2
        b = np.zeros((r2, r3))
        for j in range(r2):
            if j < r3:
                b[j, j] = 1.0
            else:
                b[j] = 1.0 / r3
    else:
        # Y2 carries Y1: a deterministic, b(j, k) = p(Y3 = k | Y1 = j)
        a = np.zeros((r1, r2))
        for i in range(r1):
            a[i, i] = 1.0
        b = np.zeros((r2, r3))
        for j in range(r2):
            if j < r1 and p1[j] > 0.0:
                b[j] = delta[j] / p1[j]
            else:
                b[j] = 1.0 / r3
    a /= a.sum(axis=1, keepdims=True)
    b /= b.sum(axis=1, keepdims=True)
    return ChainParams(shape, p1 / p1.sum(), a, b)


def consistency_check(target: MarginalTable, r2: int, restarts: int = 64,
                      tol: float = 1e-8, seed: int = 0,
                      maxiter: int = 500) -> ConsistencyReport:
    """Decide whether ``target`` is reachable by a chain model with r2 states.

    The necessary check rank <= r2 short-circuits; it is the only one, since
    the cross-ratio identity of a 3 x 3 target is the same condition.
    Feasible verdicts are certified by the witness parameters: the reported
    divergence is recomputed from them, independently of the search.
    Restarts are reduced in seed order and stop early once one beats the
    tolerance, so the report is deterministic for a given seed.
    """
    if r2 < 2:
        raise InvalidParameter(f"r2 must be >= 2, got {r2}")
    if restarts < 1:
        raise InvalidParameter(f"restarts must be >= 1, got {restarts}")
    _check_budget(maxiter, tol)
    r1, r3 = target.shape
    checks = {"rank": marginal_rank(target) <= r2}
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        return ConsistencyReport(
            feasible=False, best_divergence=float("inf"), witness=None,
            necessary_checks=checks, proven_infeasible_by=failed[0], tol=tol)

    shape = Shape(r1, r2, r3)
    if r2 >= min(r1, r3):
        witness = _unconstrained_witness(target, r2)
        best = kl_divergence(target, marginal_13(joint_from_chain(witness)))
        return ConsistencyReport(
            feasible=bool(best < tol), best_divergence=best, witness=witness,
            necessary_checks=checks, proven_infeasible_by=None, tol=tol)

    weights = target.cells
    best = float("inf")
    witness = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        try:
            params, _, _, _ = _em_run(weights, shape, rng, maxiter, tol=1e-12)
        except _ZeroResponsibility:
            continue
        kl = kl_divergence(target, marginal_13(joint_from_chain(params)))
        if kl < best:
            best = kl
            witness = params
        if best < tol:
            break
    return ConsistencyReport(
        feasible=bool(best < tol), best_divergence=best, witness=witness,
        necessary_checks=checks, proven_infeasible_by=None, tol=tol)


def is_regular(params: ChainParams) -> bool:
    """True iff p(Y2|Y1) or p(Y3|Y2) is strictly positive throughout."""
    return bool((params.a > 0.0).all() or (params.b > 0.0).all())
