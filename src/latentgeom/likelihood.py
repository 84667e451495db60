"""Multinomial likelihood of (Y1, Y3) counts, EM fitting and fiber profiles.

Only the two-way margin is observed, so the log-likelihood of chain
parameters is sum_ik n(i, k) log delta(i, k) with delta the model marginal.
Mixing transformations leave delta invariant, which makes the likelihood
exactly constant along fibers: the flat ridges realised by
:func:`profile_along_fiber`, with boundary (structurally degenerate)
endpoints exactly as likely as the interior start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidMixing,
    InvalidParameter,
    PathExitsPolytope,
    ShapeMismatch,
    SingularMixing,
)
from .fiber import MixingMatrix, apply_mixing
from .model import ChainParams, Shape, _frozen, joint_from_chain, marginal_13

NEG_INF = float("-inf")
#: relative per-step slack on EM monotonicity (double rounding at |ll| scale)
EM_SLACK = 1e-12


@dataclass(frozen=True)
class CountTable:
    """Observed (Y1, Y3) contingency counts."""

    shape: tuple[int, int]
    counts: np.ndarray

    def __post_init__(self):
        shape = (int(self.shape[0]), int(self.shape[1]))
        counts = np.asarray(self.counts)
        if counts.shape != shape:
            raise InvalidParameter(
                f"counts have shape {counts.shape}, expected {shape}"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise InvalidParameter("counts must be integers")
        counts = counts.astype(np.int64)
        if (counts < 0).any():
            raise InvalidParameter("counts must be nonnegative")
        if counts.sum() < 1:
            raise InvalidParameter("total count must be >= 1")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "counts", _frozen(counts, dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def loglik(counts: CountTable, params: ChainParams) -> float:
    """Observed-margin log-likelihood; -inf when the model's marginal puts
    zero mass on an observed cell (a comparison outcome, not an error)."""
    r1, _, r3 = params.shape.astuple()
    if counts.shape != (r1, r3):
        raise ShapeMismatch(
            f"counts shape {counts.shape} does not match model ({r1}, {r3})"
        )
    delta = marginal_13(joint_from_chain(params)).cells
    mask = counts.counts > 0
    if (delta[mask] <= 0.0).any():
        return NEG_INF
    return float(np.sum(counts.counts[mask] * np.log(delta[mask])))


class _ZeroResponsibility(Exception):
    """Internal: the E-step hit delta = 0 on an observed cell."""


def _check_budget(maxiter: int, tol: float) -> None:
    """Reject maxiter < 0 and a tol that is not a finite positive real: no
    divergence is below a tol <= 0, and EM never converges under one."""
    if maxiter < 0:
        raise InvalidParameter(f"maxiter must be >= 0, got {maxiter}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameter(f"tol must be a positive real, got {tol!r}")


def _em_run(weights: np.ndarray, shape: Shape, rng: np.random.Generator,
            maxiter: int, tol: float,
            trace: list[float] | None = None) -> tuple[ChainParams, float, int, bool]:
    """One EM run on nonnegative cell weights (counts or probabilities).

    E-step: responsibilities lambda_j(i, k) from the current parameters;
    M-step: closed-form row updates of p1, a, b.  The per-step
    log-likelihood must not decrease beyond rounding slack.  Returns
    (params, loglik, iterations, converged).
    """
    r1, r2, r3 = shape.astuple()
    total = float(weights.sum())
    p1 = rng.dirichlet(np.ones(r1))
    a = np.vstack([rng.dirichlet(np.ones(r2)) for _ in range(r1)])
    b = np.vstack([rng.dirichlet(np.ones(r3)) for _ in range(r2)])
    observed = weights > 0

    def current_ll() -> tuple[float, np.ndarray, np.ndarray]:
        cells = np.einsum("i,ij,jk->ijk", p1, a, b)
        delta = cells.sum(axis=1)
        if (delta[observed] <= 0.0).any():
            raise _ZeroResponsibility
        value = float(np.sum(weights[observed] * np.log(delta[observed])))
        return value, cells, delta

    ll_old = None
    converged = False
    iterations = 0
    ll = NEG_INF
    for it in range(maxiter):
        ll, cells, delta = current_ll()
        if trace is not None:
            trace.append(ll)
        if ll_old is not None:
            if ll < ll_old - EM_SLACK * max(1.0, abs(ll_old)):
                raise RuntimeError(
                    f"EM log-likelihood decreased: {ll_old!r} -> {ll!r}"
                )
            if ll - ll_old < tol:
                converged = True
                break
        ll_old = ll
        iterations = it + 1
        safe = np.where(delta > 0.0, delta, 1.0)
        resp = cells.transpose(0, 2, 1) / safe[:, :, None]  # lambda_j(i, k)
        nhat = weights[:, :, None] * resp                   # (i, k, j)
        p1 = nhat.sum(axis=(1, 2)) / total
        a_mass = nhat.sum(axis=1)                           # (i, j)
        a_rows = a_mass.sum(axis=1, keepdims=True)
        a = np.where(a_rows > 0.0, a_mass / np.where(a_rows > 0, a_rows, 1.0),
                     1.0 / r2)
        b_mass = nhat.sum(axis=0).T                         # (j, k)
        b_rows = b_mass.sum(axis=1, keepdims=True)
        b = np.where(b_rows > 0.0, b_mass / np.where(b_rows > 0, b_rows, 1.0),
                     1.0 / r3)
    else:
        # maxiter exhausted after an update: report the final iterate's value
        ll, _, _ = current_ll()
    params = ChainParams(shape, p1 / p1.sum(),
                         a / a.sum(axis=1, keepdims=True),
                         b / b.sum(axis=1, keepdims=True))
    return params, ll, iterations, converged


@dataclass(frozen=True)
class EmFit:
    """Fit result: parameters plus convergence metadata."""

    params: ChainParams
    loglik: float
    iterations: int
    converged: bool


def em_fit_details(counts: CountTable, shape: Shape, seed: int = 0,
                   maxiter: int = 500, tol: float = 1e-10) -> EmFit:
    """EM fit of the chain model to observed counts, with metadata.

    Initial rows are seeded flat-Dirichlet draws.  If the E-step ever hits
    a zero-probability observed cell the run restarts with the next seed
    (flat initialisations make this all but impossible, but the policy is
    deterministic).
    """
    _check_budget(maxiter, tol)
    r1, _, r3 = shape.astuple()
    if counts.shape != (r1, r3):
        raise ShapeMismatch(
            f"counts shape {counts.shape} does not match model ({r1}, {r3})"
        )
    weights = counts.counts.astype(float)
    for attempt in range(16):
        rng = np.random.default_rng(seed + attempt)
        try:
            params, ll, iters, converged = _em_run(
                weights, shape, rng, maxiter, tol)
            return EmFit(params=params, loglik=ll, iterations=iters,
                         converged=converged)
        except _ZeroResponsibility:
            continue
    raise RuntimeError("EM restarted 16 times on zero responsibilities")


@dataclass(frozen=True)
class ProfileTrace:
    """Log-likelihood trace along a straight mixing path q(t) = (1-t) I + t Q."""

    t: np.ndarray
    loglik: np.ndarray
    min_entry: np.ndarray
    start: ChainParams
    q_end: MixingMatrix

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        ll = np.asarray(self.loglik, dtype=float)
        me = np.asarray(self.min_entry, dtype=float)
        if not (t.ndim == 1 and t.shape == ll.shape == me.shape):
            raise InvalidParameter("trace columns must be 1-d and equal length")
        if t.size < 1 or (np.diff(t) <= 0).any():
            raise InvalidParameter("path parameter must be strictly increasing")
        if not (np.isfinite(t).all() and np.isfinite(ll).all()
                and np.isfinite(me).all()):
            raise InvalidParameter("trace entries must be finite")
        object.__setattr__(self, "t", _frozen(t))
        object.__setattr__(self, "loglik", _frozen(ll))
        object.__setattr__(self, "min_entry", _frozen(me))

    @property
    def range(self) -> float:
        return float(self.loglik.max() - self.loglik.min())


def _q_at(q_end: np.ndarray, t: float) -> np.ndarray:
    r2 = q_end.shape[0]
    return (1.0 - t) * np.eye(r2) + t * q_end


def profile_along_fiber(counts: CountTable, params: ChainParams,
                        q_end: MixingMatrix, steps: int) -> ProfileTrace:
    """Trace the log-likelihood along the straight path to ``q_end``.

    Because every valid q(t) preserves the marginal, the trace is a flat
    ridge: max - min stays at rounding level however degenerate the
    endpoint.  If some q(t) leaves the validity polytope the exit point is
    located by bisection and :class:`PathExitsPolytope` carries the valid
    prefix rows and the exit parameter.
    """
    if steps < 2:
        raise InvalidParameter(f"steps must be >= 2, got {steps}")
    if q_end.size != params.shape.r2:
        raise ShapeMismatch(
            f"q is {q_end.size} x {q_end.size}, model has r2 = {params.shape.r2}"
        )
    base_ll = loglik(counts, params)
    if not math.isfinite(base_ll):
        raise InvalidParameter(
            "counts lie outside the support of the starting model"
        )

    def evaluate(t: float) -> tuple[float, float]:
        q = MixingMatrix(_q_at(q_end.q, t))
        moved = apply_mixing(params, q)
        return (loglik(counts, moved),
                float(min(moved.p1.min(), moved.a.min(), moved.b.min())))

    rows: list[tuple[float, float, float]] = []
    ts = np.linspace(0.0, 1.0, steps)
    for idx, t in enumerate(ts):
        try:
            ll, me = evaluate(float(t))
        except (InvalidMixing, SingularMixing):
            lo = float(ts[idx - 1]) if idx > 0 else 0.0
            hi = float(t)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                try:
                    evaluate(mid)
                    lo = mid
                except (InvalidMixing, SingularMixing):
                    hi = mid
                if hi - lo < 1e-12:
                    break
            raise PathExitsPolytope(rows, lo)
        rows.append((float(t), ll, me))
    arr = np.array(rows)
    return ProfileTrace(t=arr[:, 0], loglik=arr[:, 1], min_entry=arr[:, 2],
                        start=params, q_end=q_end)


def permute_latent(params: ChainParams, perm=None) -> ChainParams:
    """Relabel the hidden states: the equally likely aliased parameters.

    The default for r2 = 2 swaps the two labels; larger r2 requires an
    explicit permutation (``perm[j_new] = j_old``).  The joint table is
    permuted along the hidden axis, so the observed marginal and hence the
    likelihood of any counts are untouched; applying an involution twice
    restores the input exactly.
    """
    r2 = params.shape.r2
    if perm is None:
        if r2 != 2:
            raise InvalidParameter("perm is required when r2 > 2")
        perm = (1, 0)
    perm = tuple(int(j) for j in perm)
    if sorted(perm) != list(range(r2)):
        raise InvalidParameter(f"perm {perm} is not a permutation of 0..{r2 - 1}")
    return ChainParams(params.shape, params.p1,
                       params.a[:, perm], params.b[perm, :])
