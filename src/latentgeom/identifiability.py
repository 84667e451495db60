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
from .fiber import _EPS
from .likelihood import (NEG_INF, _at_observed, _check_budget, _em_batch,
                         _observed, _unit_rows)
from .model import (
    ChainParams,
    MarginalTable,
    Shape,
    _check_count,
    _numerical_rank,
    _stochastic,
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


def _kl_rows(target: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """:func:`kl_divergence` of the ``target`` cells to each member of a
    stack of marginals ``delta`` (K, r1, r3)."""
    p, gather = _observed(target)
    q = _at_observed(gather, delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.add.reduce(p * (np.log(p) - np.log(q)), 1)
        return np.where((q <= 0.0).any(axis=1), np.inf,
                        np.where(kl > 0.0, kl, 0.0))


def kl_divergence(target: MarginalTable, model: MarginalTable) -> float:
    """KL(target || model) over the target's support; +inf on support escape.

    Rounding can push the sum of a near-exact fit a few ulps below zero;
    the result is clamped at 0, the divergence's true lower bound.
    """
    if target.shape != model.shape:
        raise InvalidParameter(
            f"target has shape {target.shape}, model has shape {model.shape}")
    return float(_kl_rows(target.cells, model.cells[None])[0])


def _examine(target: np.ndarray, p1: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """For the final p1, a and b of a stack of EM restarts: those rows
    renormalised, the mask of the restarts that ``ChainParams``,
    ``joint_from_chain`` and ``marginal_13`` accept, and each divergence from
    ``target``, each with the arithmetic of those and :func:`kl_divergence`."""
    p1, a, b = _unit_rows(p1, a, b)
    cells = np.einsum("ri,rij,rjk->rijk", p1, a, b)
    delta = cells.sum(axis=2)
    ok = (_stochastic(p1[:, None]) & _stochastic(a) & _stochastic(b)
          & _stochastic(cells.reshape(len(p1), 1, -1))
          & _stochastic(delta.reshape(len(p1), 1, -1))).tolist()
    return p1, a, b, ok, _kl_rows(target, delta).tolist()


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

    The search is one run of the EM kernel, which takes the restarts in
    seed order as lanes free up: one lane at first, twice as many, up to
    64, after each restart that stops uncertified.  Every restart follows
    the arithmetic of a run on its own, and a restart that certifies drops
    only restarts after it, which the reduction never reaches; so the
    report does not depend on the schedule.  An EM run whose log-likelihood
    decreases raises :class:`GeometryError` when the reduction reaches it.

    A stopped restart is first tested on the log-likelihood L the kernel
    computed.  Its divergence is H - L' for H = sum p log p and L' the
    log-likelihood of its renormalised rows.  To first order, renormalising
    moves the row sums of p1, a and b by r1 + r2 r3, r2 + 1 and r3 + 1 ulps
    at most, either product order is within a relative (r2 + 2) eps of a
    model cell, and H, L and the divergence, sums of at most r1 r3 log
    terms, are within (r1 r3 + 3) eps of |H|, |L| and |H| + |L|.  As
    r2 >= 3 and r1, r3 >= 4, all of it is below 2 r1 r2 r3 eps (1 + |H| +
    |L|), half the margin: a restart with L <= H - tol - margin cannot
    certify, and one above it is checked exactly.  The divergences are
    computed once, at the end, by :func:`_examine`; a restart its masks
    reject is built on its own, which raises the value type's error.
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
    p = target.cells[target.cells > 0.0]
    entropy = float(p @ np.log(p))

    def certifies(p1, a, b, ll):     # the docstring's bound, then exactly
        margin = 4 * r1 * r2 * r3 * _EPS * (1.0 + abs(entropy) + abs(ll))
        return (ll > entropy - tol - margin and _examine(
            target.cells, p1[None], a[None], b[None])[4][0] < tol)

    runs = _em_batch(target.cells, shape,
                     (np.random.default_rng([seed, k]) for k in range(restarts)),
                     maxiter, tol=1e-12, certifies=certifies)
    p1, a, b, ok, kls = _examine(target.cells, runs.p1, runs.a, runs.b)
    best, witness, divergences = float("inf"), None, []
    for r, kl in enumerate(kls):
        if r in runs.errors:
            raise runs.errors[r]
        if runs.loglik[r] == NEG_INF:
            kl = float("inf")
        elif not ok[r]:
            # the masks are exact, so this raises
            marginal_13(joint_from_chain(ChainParams(shape, p1[r], a[r], b[r])))
        divergences.append(kl)
        if kl < best:
            best, witness = kl, ChainParams(shape, p1[r], a[r], b[r])
        if best < tol:
            break
    return ConsistencyReport(
        feasible=bool(best < tol), best_divergence=best, witness=witness,
        necessary_checks=checks, proven_infeasible_by=None, tol=tol,
        divergences=tuple(divergences),
        restart_iterations=tuple(runs.iterations[:len(divergences)].tolist()))

def is_regular(params: ChainParams) -> bool:
    """True iff p(Y2|Y1) or p(Y3|Y2) is strictly positive throughout."""
    return bool((params.a > 0.0).all() or (params.b > 0.0).all())
