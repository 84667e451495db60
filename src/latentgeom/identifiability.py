"""Deciding whether an observed marginal admits a hidden-variable chain model.

A necessary check runs first and can prove infeasibility outright: the
marginal matrix must have ordinary rank <= r2 (it factors through an
r2-state variable).  The rank-2 cross-ratio identity of a positive 3 x 3
marginal equals delta00 det(delta) / (delta10 delta20 delta01 delta02), so
it vanishes exactly when the rank is <= 2 and is not checked separately.
When r2 >= min(r1, r3), or when the rank is <= 2 (a nonnegative matrix of
rank <= 2 has equal nonnegative rank, Cohen & Rothblum 1993), an exact
witness is written down directly: the rows of p(Y3 | Y2) are the vertices
of a simplex holding every row p(Y3 | Y1 = i), and p(Y2 | Y1) holds their
barycentric weights.  Only 3 <= rank <= r2 < min(r1, r3) runs a multistart
EM search minimising KL(target || model marginal); "infeasible" then means
"not found within budget" and the report distinguishes the two situations
through ``proven_infeasible_by``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .likelihood import NEG_INF, _check_budget, _em_batch
from .model import (
    ChainParams,
    MarginalTable,
    Shape,
    _check_count,
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
    means the search budget was exhausted.  ``divergences`` holds the final
    KL divergence of each EM restart the search examined, in seed order
    (inf for a restart stopped by a zero-probability observed cell); it is
    empty when no search ran.  ``restart_iterations`` holds, aligned with
    ``divergences``, the number of EM updates each of those restarts made
    before it stopped.
    """

    feasible: bool
    best_divergence: float
    witness: ChainParams | None
    necessary_checks: dict[str, bool]
    proven_infeasible_by: str | None
    tol: float
    divergences: tuple[float, ...] = ()
    restart_iterations: tuple[int, ...] = ()

    def __post_init__(self):
        if self.feasible and not self.best_divergence < self.tol:
            raise InvalidParameter("feasible report requires divergence < tol")
        if any(not ok for ok in self.necessary_checks.values()) and self.feasible:
            raise InvalidParameter("failed necessary check forces infeasibility")

    @property
    def restarts_tried(self) -> int:
        return len(self.divergences)


def diagonal_marginal(r1: int, r3: int) -> MarginalTable:
    """The deterministic-match marginal: delta(i, k) = 1/r1 when i = k.

    Its matrix rank is r1, so it is consistent with an r2-state hidden
    variable exactly when r2 >= r1; the witness is the chain that copies
    Y1 into Y2 into Y3.
    """
    _check_count("r1", r1, 1)
    _check_count("r3", r3, 1)
    if r3 < r1:
        raise InvalidParameter(f"requires r3 >= r1, got ({r1}, {r3})")
    return MarginalTable((r1, r3), np.eye(r1, r3) / r1)


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


def _exact_witness(target: MarginalTable, r2: int) -> ChainParams:
    """Chain parameters that reproduce ``target`` exactly, for
    r2 >= min(r1, r3) or rank <= 2.

    The rows of ``b`` are the vertices of a simplex that holds every
    conditional row p(Y3 | Y1 = i), and row i of ``a`` holds that row's
    barycentric weights, so a @ b is the conditional table.  The vertices
    are the unit vectors when r2 >= r3 (Y2 copies Y3), the rows themselves
    when r2 >= r1 (Y2 copies Y1), and otherwise the two ends of the segment
    the rows of a rank <= 2 target lie on.  Unused states get a zero ``a``
    column and a uniform ``b`` row; a state of Y1 with zero mass gets a
    uniform ``a`` row, or its own uniform vertex when Y2 copies Y1.
    """
    r1, r3 = target.shape
    p1 = target.cells.sum(axis=1)
    live = p1 > 0.0
    rows = target.cells[live] / p1[live, None]
    a = np.full((r1, r2), 1.0 / r2)
    b = np.full((r2, r3), 1.0 / r3)
    if r2 >= r3:
        a[live] = np.pad(rows, ((0, 0), (0, r2 - r3)))
        b[:r3] = np.eye(r3)
    elif r2 >= r1:
        a = np.eye(r1, r2)
        b[np.flatnonzero(live)] = rows
    else:
        # the rows lie on a segment: project them on its direction
        centred = rows - rows.mean(axis=0)
        s = rows @ np.linalg.svd(centred, full_matrices=False)[2][0]
        lo, hi = int(np.argmin(s)), int(np.argmax(s))
        span = s[hi] - s[lo]
        t = (s - s[lo]) / span if span > 0.0 else np.ones(len(s))
        b[0], b[1] = rows[lo], rows[hi]
        a[live] = np.pad(np.column_stack([1.0 - t, t]), ((0, 0), (0, r2 - 2)))
    a /= a.sum(axis=1, keepdims=True)
    b /= b.sum(axis=1, keepdims=True)
    return ChainParams(Shape(r1, r2, r3), p1 / p1.sum(), a, b)


def consistency_check(target: MarginalTable, r2: int, restarts: int = 64,
                      tol: float = 1e-8, seed: int = 0,
                      maxiter: int = 500) -> ConsistencyReport:
    """Decide whether ``target`` is reachable by a chain model with r2 states.

    The necessary check rank <= r2 short-circuits; it is the only one, since
    the cross-ratio identity of a 3 x 3 target is the same condition.  A
    target that passes it is decided exactly when r2 >= min(r1, r3) or its
    rank is <= 2: the closed-form witness of :func:`_exact_witness` reaches
    it, and ``restarts``, ``maxiter`` and ``seed`` are not used.  Only
    3 <= rank <= r2 < min(r1, r3) runs the multistart EM search.
    Feasible verdicts are certified by the witness parameters: the reported
    divergence is recomputed from them, independently of the construction
    or the search.  Restarts are reduced in seed order and stop early once
    one beats the tolerance, so the report is deterministic for a given seed.

    The search runs its restarts in blocks of 1, 2, 4, ..., 64 and then 64
    at a time (the last one cut at ``restarts``), each block advanced
    together by one EM kernel, so a target certified by an early restart
    costs about one run while a search that exhausts the default budget of
    64 pays the per-iteration overhead 7 times instead of 64 times.  The
    cap holds a block's arrays at 64 restarts whatever ``restarts`` is.
    Every restart follows the arithmetic of a run on its own, and restarts
    after the first certified one are never examined, so the report does
    not depend on the blocks.  An EM run whose log-likelihood decreases raises
    :class:`GeometryError` when the reduction reaches it.
    """
    _check_count("r2", r2, 2)
    _check_count("restarts", restarts, 1)
    _check_count("seed", seed, 0)
    _check_budget(maxiter, tol)
    r1, r3 = target.shape
    rank = marginal_rank(target)
    checks = {"rank": rank <= r2}
    if not checks["rank"]:
        return ConsistencyReport(
            feasible=False, best_divergence=float("inf"), witness=None,
            necessary_checks=checks, proven_infeasible_by="rank", tol=tol)

    if r2 >= min(r1, r3) or rank <= 2:
        witness = _exact_witness(target, r2)
        best = kl_divergence(target, marginal_13(joint_from_chain(witness)))
        return ConsistencyReport(
            feasible=bool(best < tol), best_divergence=best, witness=witness,
            necessary_checks=checks, proven_infeasible_by=None, tol=tol)

    shape = Shape(r1, r2, r3)
    best = float("inf")
    witness = None
    divergences: list[float] = []
    iterations: list[int] = []
    start, size = 0, 1
    while start < restarts and not best < tol:
        block = range(start, min(start + size, restarts))
        runs = _em_batch(target.cells, shape,
                         [np.random.default_rng([seed, k]) for k in block],
                         maxiter, tol=1e-12)
        for r in range(len(block)):
            if r in runs.errors:
                raise runs.errors[r]
            iterations.append(int(runs.iterations[r]))
            if runs.loglik[r] == NEG_INF:
                divergences.append(float("inf"))
                continue
            params = runs.params(shape, r)
            kl = kl_divergence(target, marginal_13(joint_from_chain(params)))
            divergences.append(kl)
            if kl < best:
                best = kl
                witness = params
            if best < tol:
                break
        start, size = block.stop, min(2 * size, 64)
    return ConsistencyReport(
        feasible=bool(best < tol), best_divergence=best, witness=witness,
        necessary_checks=checks, proven_infeasible_by=None, tol=tol,
        divergences=tuple(divergences), restart_iterations=tuple(iterations))


def is_regular(params: ChainParams) -> bool:
    """True iff p(Y2|Y1) or p(Y3|Y2) is strictly positive throughout."""
    return bool((params.a > 0.0).all() or (params.b > 0.0).all())
