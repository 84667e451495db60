"""Multinomial likelihood of (Y1, Y3) counts, EM fitting and fiber profiles.

Only the two-way margin is observed, so the log-likelihood of chain
parameters is sum_ik n(i, k) log delta(i, k) with delta the model marginal.
Mixing transformations leave delta invariant, which makes the likelihood
exactly constant along fibers: the flat ridges realised by
:func:`profile_along_fiber`, with boundary (structurally degenerate)
endpoints exactly as likely as the interior start.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import compress, count
from operator import sub
from typing import NamedTuple

import numpy as np

from .errors import (
    GeometryError,
    InvalidMixing,
    InvalidParameter,
    PathExitsPolytope,
    SingularMixing,
)
from .fiber import MixingMatrix, _mix, _snap, apply_mixing
from .model import (
    ChainParams,
    Shape,
    _fields_eq,
    _frozen,
    _reals,
    _stochastic,
    joint_from_chain,
    marginal_13,
)
from .shapes import _check_count, _integer_pair, _is_integer

NEG_INF = float("-inf")
#: relative per-step slack on EM monotonicity (double rounding at |ll| scale)
EM_SLACK = 1e-12


@dataclass(frozen=True)
class CountTable:
    """Observed (Y1, Y3) contingency counts."""

    shape: tuple[int, int]
    counts: np.ndarray

    __eq__ = _fields_eq

    def __post_init__(self):
        shape = _integer_pair(self.shape, "counts shape")
        counts = _reals(self.counts, "counts must be integers", floats=False)
        if counts.shape != shape:
            raise InvalidParameter(
                f"counts have shape {counts.shape}, expected {shape}"
            )
        if not np.issubdtype(counts.dtype, np.integer):
            # a bool is no count, as it is no size
            if counts.dtype == bool or not np.all(counts == np.floor(counts)):
                raise InvalidParameter("counts must be integers")
            if not (np.abs(counts) < 2.0 ** 63).all():    # no int64 holds it
                raise InvalidParameter("counts must be finite and below 2**63")
        counts = counts.astype(np.int64)
        if (counts < 0).any():
            raise InvalidParameter("counts must be nonnegative")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "counts", _frozen(counts, dtype=np.int64))
        if self.total < 1:
            raise InvalidParameter("total count must be >= 1")

    @property
    def total(self) -> int:
        """The exact total: a sum in Python integers, where an int64 sum
        would wrap at 2**63."""
        return sum(self.counts.ravel().tolist())


def _observed(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The positive cell weights and their flat indices (None when every
    cell is positive): the arguments of :func:`_loglik_rows`."""
    observed = weights > 0
    return weights[observed], None if observed.all() else np.flatnonzero(observed)


def _at_observed(gather: np.ndarray | None, delta: np.ndarray) -> np.ndarray:
    """The cells at the flat indices ``gather`` (all cells if None) of each
    member of a stack of marginals ``delta`` (K, r1, r3), one row each."""
    flat = delta.reshape(len(delta), -1)
    # rows must be C-contiguous: numpy sums a contiguous row pairwise, as
    # it sums the 1-d terms of a single table, and a strided one in order;
    # a boolean mask would give strided rows
    return flat if gather is None else flat.take(gather, axis=1)


def _loglik_rows(w_obs: np.ndarray, gather: np.ndarray | None,
                 delta: np.ndarray) -> np.ndarray:
    """Observed-cell log-likelihood sum w log delta of each member of a
    stack of marginals ``delta`` (K, r1, r3), over the cells at the flat
    indices ``gather`` (all cells if None) with weights ``w_obs``, one row
    of them or one for each member.

    -inf exactly when an observed cell has zero probability; the caller
    silences the divide warning of log(0).
    """
    return np.add.reduce(w_obs * np.log(_at_observed(gather, delta)), 1)


def loglik(counts: CountTable, params: ChainParams) -> float:
    """Observed-margin log-likelihood; -inf when the model's marginal puts
    zero mass on an observed cell (a comparison outcome, not an error)."""
    r1, _, r3 = params.shape.astuple()
    if counts.shape != (r1, r3):
        raise InvalidParameter(
            f"counts shape {counts.shape} does not match model ({r1}, {r3})"
        )
    delta = marginal_13(joint_from_chain(params)).cells
    with np.errstate(divide="ignore"):
        return float(_loglik_rows(*_observed(counts.counts), delta[None])[0])


def _check_budget(maxiter: int, tol: float) -> None:
    """Reject a maxiter that is not an integer >= 0 and a tol that is not
    a finite positive real: no divergence is below a tol <= 0, and EM never
    converges under one.  A ``bool`` is not a tol, and a real tol is shown
    as a Python float in the message."""
    _check_count("maxiter", maxiter, 0)
    shown = tol
    if isinstance(tol, numbers.Real) and not isinstance(tol, bool):
        with contextlib.suppress(OverflowError):    # an int past float range
            shown = float(tol)
    if not (isinstance(shown, float) and math.isfinite(shown) and shown > 0):
        raise InvalidParameter(f"tol must be a positive real, got {shown!r}")


class _EmRuns(NamedTuple):
    """Final iterates of R EM restarts, restart axis first.

    ``loglik`` is -inf for a restart whose E-step met a zero-probability
    observed cell; ``iterations`` counts the updates a restart made before
    it stopped; ``errors`` maps a restart whose log-likelihood decreased
    to the error its caller raises when it reaches that restart.
    """

    p1: np.ndarray           # (R, r1)
    a: np.ndarray            # (R, r1, r2)
    b: np.ndarray            # (R, r2, r3)
    loglik: np.ndarray       # (R,)
    iterations: np.ndarray   # (R,)
    converged: np.ndarray    # (R,)
    errors: dict[int, GeometryError]

    def params(self, shape: Shape, r: int) -> ChainParams:
        """Chain parameters of restart ``r``, rows renormalised."""
        return ChainParams(shape, *(x[r] for x in _unit_rows(self.p1, self.a, self.b)))


def _unit_rows(p1: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """Stacks of p1, a and b, each row divided by its sum."""
    return (p1 / p1.sum(axis=1, keepdims=True),
            a / a.sum(axis=2, keepdims=True),
            b / b.sum(axis=2, keepdims=True))


def _em_batch(weights: np.ndarray, shape: Shape,
              rngs: Iterable[np.random.Generator], maxiter: int, tol: float,
              trace: list[float] | None = None,
              certifies: Callable[..., bool] | None = None,
              lanes: int = 1) -> _EmRuns:
    """EM runs on nonnegative cell weights (counts or probabilities), one
    restart per generator, advanced together on a leading restart axis.

    Each restart starts from flat-Dirichlet rows drawn from its generator.
    E-step: responsibilities lambda_j(i, k) from the current parameters;
    M-step: closed-form row updates of p1, a, b.  A restart stops when its
    log-likelihood gains less than ``tol`` (converged, reporting the iterate
    before the update), when it decreases beyond rounding slack (an error),
    when an observed cell gets zero probability, or after ``maxiter``
    updates (reporting the final iterate).  Only then does it leave the
    working arrays.  Every restart follows the arithmetic of a run on its
    own, operation for operation and in the same summation order, so its
    results are bitwise those of R = 1 and do not depend on the other
    restarts.  ``trace`` receives the log-likelihoods of the running
    restarts at every iteration, in restart order.

    Restarts join in generator order as lanes free up, counting updates
    from the iteration they join.  ``lanes`` lanes at first are doubled, up
    to 64, by each restart that stops uncertified (a false final
    ``certifies(p1, a, b, loglik)``, or any without it); one that certifies
    drops those after it, and the results end with the first that
    certifies.

    The order of every sum is fixed by the memory layout.  numpy adds
    along a strided axis one slice after another, in index order, and sums
    a contiguous run pairwise (8 ways at once from 8 terms on).  The
    working arrays keep the axes (r, i, j, k) of the joint table, with
    size 1 where a factor does not vary: p1 is (r, i, 1, 1), a is
    (r, i, j, 1) and b is (r, 1, j, k).  So ``cells = p1 a b`` is
    (p1 a) b, the product order of ``einsum``, laid out in (r, i, j, k)
    order like the expected counts ``nhat``, and the products, quotients
    and M-step sums need no views or transposes.  The sums
    over j (``delta``, by slice adds) and over i (``b_mass``) are
    sequential; those over the contiguous k rows (``a_mass``, ``b_rows``,
    the log-likelihood), j rows (``a_rows``) and (j, k) blocks (``p1``) are
    pairwise.  The restart axis is outermost, so each restart's sums cover
    its own contiguous block in the order of a run on its own.
    """
    r1, r2, r3 = shape.astuple()
    rngs = iter(rngs)
    total = float(weights.sum())
    # with every cell observed (gather None) every delta is positive
    w_row, gather = _observed(weights)
    # a row mass of a sums w(i, k) lambda_j(i, k) with max_j lambda >= 1/r2:
    # positive for every row holding a weight of normal size
    a_rows_positive = bool((weights.max(axis=1) >= np.finfo(float).tiny).all())
    finals: list[tuple] = []  # start, then (p1, a, b, loglik, updates, converged)
    errors: dict[int, GeometryError] = {}
    examined = math.inf          # how many restarts the results cover
    live: list[int] = []         # restart index of each working row
    born: list[int] = []         # iteration at which each working row joined
    ll_old: list[float] = []     # last values of the rows that joined before
    p1, a, b = (np.empty((0, r1, 1, 1)), np.empty((0, r1, r2, 1)),
                np.empty((0, 1, r2, r3)))
    # the weights of every working restart, laid out like the terms of the
    # log-likelihood and like nhat: a product of equal shapes skips numpy's
    # broadcasting machinery
    w_all = w_obs = np.empty((0, len(w_row)))
    w_rijk_all = w_rijk = np.empty((0, r1, r2, r3))

    def leave(rows, converged):
        """Store and drop the restarts at ``rows`` and any after a certified
        one; returns the values of the rows left."""
        nonlocal p1, a, b, cells, delta, ll, w_obs, w_rijk, examined, lanes
        values = ll.tolist()
        for n in np.flatnonzero(rows).tolist():
            k = live[n]
            finals[k] = (p1[n].reshape(r1), a[n].reshape(r1, r2),
                         b[n].reshape(r2, r3), values[n], it - born[n],
                         converged)
            if certifies is not None and certifies(*finals[k][:4]):
                examined = min(examined, k + 1)
            else:
                lanes = min(2 * lanes, 64)
        keep = ~rows & (np.array(live) < examined)
        p1, a, b, cells, delta, ll = (x[keep] for x in (p1, a, b, cells, delta, ll))
        for x in (live, born, ll_old):
            x[:] = compress(x, keep.tolist())
        w_obs, w_rijk = w_all[:len(live)], w_rijk_all[:len(live)]
        return ll.tolist()

    with np.errstate(divide="ignore"):
        for it in count():
            # draw the starts of the next restarts into the free lanes
            first = len(finals)
            while len(live) < lanes and len(finals) < examined:
                rng = next(rngs, None)
                if rng is None:
                    examined = len(finals)
                    break
                live.append(len(finals))
                born.append(it)
                finals.append((rng.dirichlet(np.ones(r1)),
                               rng.dirichlet(np.ones(r2), size=r1),
                               rng.dirichlet(np.ones(r3), size=r2)))
            if len(finals) > first:
                p1, a, b = (np.concatenate((x, np.reshape(new, (-1, *x.shape[1:]))))
                            for x, new in zip((p1, a, b), zip(*finals[first:])))
                if len(live) > len(w_all):
                    w_all = np.tile(w_row, (lanes, 1))
                    w_rijk_all = np.broadcast_to(weights[:, None, :],
                                                 (lanes, r1, r2, r3)).copy()
                w_obs, w_rijk = w_all[:len(live)], w_rijk_all[:len(live)]
            if not live:
                break
            cells = p1 * a * b
            # the sum over j, slice by slice as numpy sums a strided axis
            delta = cells[:, :, :1] + cells[:, :, 1:2]           # (r, i, 1, k)
            for j in range(2, r2):
                np.add(delta, cells[:, :, j:j + 1], out=delta)
            ll = _loglik_rows(w_obs, gather, delta)
            values = ll.tolist()
            # the rows that joined maxiter iterations ago, a prefix, report
            # their final iterates' values
            due = born.count(it - maxiter)
            if due or NEG_INF in values:
                values = leave((ll == NEG_INF) | (np.arange(len(live)) < due),
                               False)
            if trace is not None:
                trace.extend(values)
            # with EM_SLACK >= 0 a decrease beyond it is a gain below tol;
            # the rows that joined in this iteration have no previous value
            if ll_old and (EM_SLACK < 0.0
                           or min(map(sub, values, ll_old)) < tol):
                old = np.array(ll_old)
                head = ll[:len(old)]
                floor = old - EM_SLACK * np.maximum(1.0, np.abs(old))
                for r in np.flatnonzero(head < floor).tolist():
                    errors[live[r]] = GeometryError(
                        f"EM log-likelihood decreased: {float(old[r])!r}"
                        f" -> {float(ll[r])!r}")
                stops = np.zeros(len(live), dtype=bool)
                stops[:len(old)] = (head < floor) | (head - old < tol)
                values = leave(stops, True)
            ll_old = values
            if not live:
                continue
            safe = delta if gather is None else np.where(delta > 0.0, delta, 1.0)
            # responsibilities, then expected counts, in the cells' memory
            nhat = np.multiply(np.divide(cells, safe, out=cells), w_rijk,
                               out=cells)
            p1 = np.divide(np.add.reduce(nhat, (2, 3), keepdims=True), total)
            a_mass = np.add.reduce(nhat, 3, keepdims=True)
            a_rows = np.add.reduce(a_mass, 2, keepdims=True)
            if a_rows_positive:
                a = np.divide(a_mass, a_rows)
            else:
                a = np.where(a_rows > 0.0,
                             a_mass / np.where(a_rows > 0, a_rows, 1.0), 1.0 / r2)
            b_mass = np.add.reduce(nhat, 1, keepdims=True)
            b_rows = np.add.reduce(b_mass, 3, keepdims=True)
            if np.count_nonzero(b_rows) == b_rows.size:
                b = np.divide(b_mass, b_rows)
            else:
                b = np.where(b_rows > 0.0,
                             b_mass / np.where(b_rows > 0, b_rows, 1.0), 1.0 / r3)
    return _EmRuns(*map(np.array, zip(*finals[:examined])),
                   {k: e for k, e in errors.items() if k < examined})


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
    deterministic).  After 16 such restarts, or when the log-likelihood
    decreases beyond rounding slack, :class:`GeometryError` is raised.
    """
    _check_count("seed", seed, 0)
    _check_budget(maxiter, tol)
    r1, _, r3 = shape.astuple()
    if counts.shape != (r1, r3):
        raise InvalidParameter(
            f"counts shape {counts.shape} does not match model ({r1}, {r3})"
        )
    # the results end at the first restart with a finite log-likelihood
    runs = _em_batch(counts.counts.astype(float), shape,
                     (np.random.default_rng(seed + k) for k in range(16)),
                     maxiter, tol, certifies=lambda p1, a, b, ll: ll > NEG_INF)
    r = len(runs.loglik) - 1
    if r in runs.errors:
        raise runs.errors[r]
    if runs.loglik[r] == NEG_INF:
        raise GeometryError("EM restarted 16 times on zero responsibilities")
    return EmFit(params=runs.params(shape, r), loglik=float(runs.loglik[r]),
                 iterations=int(runs.iterations[r]),
                 converged=bool(runs.converged[r]))


@dataclass(frozen=True)
class ProfileTrace:
    """Log-likelihood trace along a straight mixing path q(t) = (1-t) I + t Q."""

    t: np.ndarray
    loglik: np.ndarray
    min_entry: np.ndarray
    start: ChainParams
    q_end: MixingMatrix

    __eq__ = _fields_eq

    def __post_init__(self):
        t, ll, me = (_reals(column, "trace entries must be real numbers")
                     for column in (self.t, self.loglik, self.min_entry))
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


def _q_path(q_end: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The stack of q(t) = (1 - t) I + t Q for the path parameters ``ts``."""
    ts = ts[:, None, None]
    return (1.0 - ts) * np.eye(q_end.shape[0]) + ts * q_end


def profile_along_fiber(counts: CountTable, params: ChainParams,
                        q_end: MixingMatrix, steps: int) -> ProfileTrace:
    """Trace the log-likelihood along the straight path to ``q_end``.

    Because every valid q(t) preserves the marginal, the trace is a flat
    ridge: max - min stays at rounding level however degenerate the
    endpoint.  If some q(t) leaves the validity polytope the exit point is
    located by bisection and :class:`PathExitsPolytope` carries the valid
    prefix rows and the exit parameter.

    All steps go through one stacked call of the mixing kernel, one
    stacked log-likelihood and the probability-row test of the value
    types, each member with the arithmetic and summation order of
    :func:`apply_mixing` and :func:`loglik` on its own.  The first step the
    stack rejects is evaluated on its own, which raises its error, or
    starts the bisection, exactly as a step-by-step walk would; so the
    trace, the prefix and ``exit_t`` are bitwise those of that walk.
    """
    _check_count("steps", steps, 2)
    if q_end.size != params.shape.r2:
        raise InvalidParameter(
            f"q is {q_end.size} x {q_end.size}, model has r2 = {params.shape.r2}"
        )
    base_ll = loglik(counts, params)
    if not math.isfinite(base_ll):
        raise InvalidParameter(
            "counts lie outside the support of the starting model"
        )

    def evaluate(t: float) -> None:
        """Raise what one step of a step-by-step walk raises at ``t``."""
        q = MixingMatrix(_q_path(q_end.q, np.array([t]))[0])
        loglik(counts, apply_mixing(params, q))

    ts = np.linspace(0.0, 1.0, steps)
    mixed = _mix(params, _q_path(q_end.q, ts))
    # steps the kernel rejects carry placeholders that may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = _snap(mixed.a), _snap(mixed.b)
        cells = np.einsum("i,kij,kjl->kijl", params.p1, a, b)
        delta = cells.sum(axis=2)
        ll = _loglik_rows(*_observed(counts.counts), delta)
    min_entry = np.minimum(np.minimum(params.p1.min(), a.min(axis=(1, 2))),
                           b.min(axis=(1, 2)))
    # the steps on which apply_mixing and loglik raise nothing: the kernel's
    # clamp test and the checks of ChainParams, JointTable and MarginalTable
    ok = (mixed.valid & _stochastic(params.p1[None]) & _stochastic(a)
          & _stochastic(b)
          & _stochastic(cells.reshape(steps, 1, -1))
          & _stochastic(delta.reshape(steps, 1, -1)))
    first = steps if ok.all() else int(np.argmin(ok))
    rows = list(zip(ts[:first].tolist(), ll[:first].tolist(),
                    min_entry[:first].tolist()))
    if first < steps:
        # the mask is exact, so this step raises
        try:
            evaluate(float(ts[first]))
        except (InvalidMixing, SingularMixing):
            lo = float(ts[first - 1]) if first > 0 else 0.0
            hi = float(ts[first])
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
    with contextlib.suppress(TypeError):    # a non-iterable stays as given
        perm = tuple(perm)
    if not (isinstance(perm, tuple) and all(map(_is_integer, perm))
            and sorted(perm) == list(range(r2))):
        raise InvalidParameter(f"perm {perm} is not a permutation of 0..{r2 - 1}")
    return ChainParams(params.shape, params.p1,
                       params.a[:, perm], params.b[perm, :])
