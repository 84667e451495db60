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
    InvalidParameter,
    PathExitsPolytope,
    SingularMixing,
)
from .fiber import MixingMatrix, _mix, _snap
from .model import (
    EM_SLACK,
    ChainParams,
    Shape,
    _check_shape,
    _fields_eq,
    _frozen,
    _reals,
    _stochastic,
    _unit_chains,
    _unit_rows,
    joint_from_chain,
    marginal_13,
)
from .shapes import _check_count, _integer_pair, _is_integer

NEG_INF = float("-inf")


@dataclass(frozen=True)
class CountTable:
    """Observed (Y1, Y3) contingency counts."""

    shape: tuple[int, int]
    counts: np.ndarray

    __eq__ = _fields_eq

    def __post_init__(self):
        shape = _integer_pair(self.shape, "counts shape")
        counts = _reals(self.counts, "counts must be integers", floats=False)
        _check_shape("counts", counts, shape)
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
    """The positive cell weights and their flat indices, or the flat cells
    themselves and None when every cell is positive: the arguments of
    :func:`_loglik_rows`."""
    observed = weights > 0
    return ((weights.ravel(), None) if observed.all()
            else (weights[observed], np.flatnonzero(observed)))


def _at_observed(gather: np.ndarray | None, rows: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The cells at the flat indices ``gather`` (all cells if None) of each
    row of flat marginals ``rows`` (K, r1 r3), into ``out`` if given."""
    # C-contiguous rows, which a boolean mask would not give: numpy sums a
    # contiguous row pairwise, as the 1-d terms of one table, a strided one
    # in order; "clip" (valid indices) writes ``out`` without a buffer copy
    return rows if gather is None else rows.take(gather, 1, out, "clip")


def _loglik_rows(w_obs: np.ndarray, gather: np.ndarray | None,
                 rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Observed-cell log-likelihood sum w log delta of each row of flat
    marginals ``rows`` (K, r1 r3), over the cells at the flat indices
    ``gather`` (all cells if None) with weights ``w_obs``, one row of them
    or one for each member; the terms go to ``out`` if given.

    -inf exactly when an observed cell has zero probability; the caller
    silences the divide warning of log(0).
    """
    terms = np.log(_at_observed(gather, rows, out), out)
    return np.add.reduce(np.multiply(w_obs, terms, out), 1)


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
        return float(_loglik_rows(*_observed(counts.counts), delta.reshape(1, -1))[0])


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
    """Final iterates of R EM restarts, restart axis first, as
    :func:`~latentgeom.model._unit_rows` leaves them.

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
        """Chain parameters of restart ``r`` by :func:`~latentgeom.model._unit_chains`:
        EM's rows are products, sums and quotients of entries >= 0, each divided by its sum."""
        return _unit_chains(shape, self.p1[r], self.a[r:r + 1], self.b[r:r + 1])[0]


def _workspace(shape: Shape, w_row: np.ndarray, weights: np.ndarray,
               n: int) -> list:
    """The buffers of ``n`` restarts for :func:`_em_batch`, with a copy for
    each of ``w_row``, delta's lift (1 at a cell of zero weight) and ``weights``."""
    r1, r2, r3 = shape.astuple()
    return [*map(np.empty, ((n, r1, 1, 1), (n, r1, r2, 1), (n, 1, r2, r3),
                            (n, r1, r2, 1), (n, r1, r2, r3), (n, r1, 1, r3),
                            (n, r1), (n, r2), (n, len(w_row)))),
            *(np.repeat(x[None], n, 0) for x in (w_row, np.where(weights > 0.0, 0.0, 1.0)[:, None],
                                                 np.broadcast_to(weights[:, None], (r1, r2, r3))))]


def _views(shape: Shape, buffers: list, n: int) -> tuple:
    """The working arrays of the first ``n`` restarts of ``buffers`` and their views."""
    r1, r2, r3 = shape.astuple()
    p1, a, b, pa, joint, delta, a_rows, b_rows, terms, w_obs, lift, w = (
        x[:n] for x in buffers)
    cells, delta = joint.reshape(n * r1, r2, r3), delta.reshape(n * r1, 1, r3)
    return (p1, a, b, pa, joint, cells, cells[:, :1], cells[:, 1:2],
            [cells[:, j:j + 1] for j in range(2, r2)], delta, delta.reshape(n, -1),
            terms, w_obs, lift.reshape(delta.shape), w.reshape(cells.shape),
            a_rows.reshape(-1, 1), b_rows.reshape(-1, 1), cells.reshape(n * r1, -1),
            p1.ravel(), cells.reshape(-1, r3), a.ravel(), a.reshape(-1, r2),
            a_rows.ravel(), cells.reshape(n, r1, -1), b.reshape(n, -1),
            b.reshape(-1, r3), b_rows.ravel())


def _em_batch(weights: np.ndarray, shape: Shape,
              rngs: Iterable[np.random.Generator], maxiter: int, tol: float,
              trace: list[float] | None = None,
              certifies: Callable[..., bool] | None = None,
              lanes: int = 1) -> _EmRuns:
    """EM runs on nonnegative cell weights (counts or probabilities), one
    restart per generator, advanced together on a leading restart axis.

    Each restart starts from flat-Dirichlet rows: r1 + r1 r2 + r2 r3
    standard exponentials from its generator, each row times the reciprocal
    of its in-order sum (the arithmetic of ``Generator.dirichlet``).
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

    The order of every sum is fixed by the memory layout: numpy adds
    along a strided axis one slice after another, in index order, and sums
    a contiguous run pairwise (8 ways at once from 8 terms on).  The
    working arrays keep the axes (r, i, j, k) of the joint table, size 1
    where a factor does not vary: p1 (r, i, 1, 1), a (r, i, j, 1) and b
    (r, 1, j, k), so ``joint = p1 a b`` is (p1 a) b, the product order of
    ``einsum``, laid out like the expected counts.  Its view ``cells``
    (r i, j, k) gives ``delta`` by slice adds over j, and the middle axis
    of (r, i, j k) the b masses, both in order; the rows of the 2-d views
    (r i, j k), (r i j, k), (r i, j) and (r j, k) give p1, the a masses
    and the row sums of a and b, pairwise like the log-likelihood's
    (r, cells) terms.  With the restart axis outermost, each restart's
    sums cover their own contiguous runs, as in a run on its own.

    Every product, quotient, log and sum writes through a positional ``out``
    into the buffers of :func:`_workspace`, allocated when the running
    restarts outnumber them.  When those change, the restarts that stay are
    compacted to the front and the starts of those that join follow,
    normalised as one block, and :func:`_views` views the prefix as a fresh
    array is laid out.  The log-likelihood reads delta, which is then lifted
    by 1 at the unobserved cells: an observed cell divides by delta + 0.0,
    which is delta, and an unobserved one's finite quotient times its zero
    weight is +0.0, as the kept p1 a b times 0 was.  A value or a run's sum
    is the same in a given array or view as in a fresh one
    (``tests/test_numpy_orders.py``), so no bit changes.  A restart that
    left took the last M-step, unread (0/0 after a zero cell), once its
    iterate was copied.
    """
    r1, r2, r3 = shape.astuple()
    rngs = iter(rngs)
    total = np.array(float(weights.sum()))      # a 0-d divisor costs less
    # with every cell observed (gather None) every delta is positive
    w_row, gather = _observed(weights)
    # a row mass of a sums w(i, k) lambda_j(i, k) with max_j lambda >= 1/r2:
    # positive for every row holding a weight of normal size
    a_rows_positive = bool((weights.max(axis=1) >= np.finfo(float).tiny).all())
    finals: list = []  # start's draws, then (p1, a, b, loglik, updates, converged)
    errors: dict[int, GeometryError] = {}
    examined = math.inf          # how many restarts the results cover
    live: list[int] = []         # restart index of each running restart
    born: list[int] = []         # iteration at which each one joined
    rows: list[int] = []         # its row in the buffers
    ll_old: list[float] = []     # last values of the ones that joined before
    p1 = a = b = np.empty((0, 1, 1, 1))  # no running restart yet
    buffers, draws = [p1], r1 + r1 * r2 + r2 * r3    # nor buffers for one
    changed = True               # a restart left: lanes may be free

    def leave(stops, converged):
        """Copy out and store the iterates of the running restarts flagged
        in ``stops``, and drop them and any after a certified one."""
        nonlocal examined, lanes, changed
        for n in compress(range(len(rows)), stops):
            k, w = live[n], rows[n]
            finals[k] = (p1[w, :, 0, 0].copy(), a[w, :, :, 0].copy(),
                         b[w, 0].copy(), values[n], it - born[n], converged)
            if certifies is not None and certifies(*finals[k][:4]):
                examined = min(examined, k + 1)
            else:
                lanes = min(2 * lanes, 64)
        keep = [not stop and k < examined for stop, k in zip(stops, live)]
        for x in (live, born, rows, ll_old, values):
            x[:] = compress(x, keep)
        changed = True

    add, multiply, divide, reduce = np.add, np.multiply, np.divide, np.add.reduce
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in count():
            if changed:
                # draw the starts of the next restarts into the free lanes
                first = len(finals)
                while len(live) < lanes and len(finals) < examined:
                    rng = next(rngs, None)
                    if rng is None:
                        examined = len(finals)
                        break
                    live.append(len(finals))
                    born.append(it)
                    finals.append(rng.standard_exponential(draws))
                if not live:
                    break
                if len(live) != len(p1) or len(finals) > first:
                    n, kept = len(live), len(rows)
                    if n > len(buffers[0]):
                        buffers = _workspace(shape, w_row, weights, n)
                    for x, old in zip(buffers, (p1, a, b)):
                        x[:kept] = old[rows]
                    if len(finals) > first:     # the starts of those that joined
                        e = np.hsplit(np.reshape(finals[first:], (-1, draws)), [r1, r1 + r1 * r2])
                        for x, part, axis in zip(buffers, e, (1, 2, 3)):
                            new = x[kept:n]
                            new[...] = part.reshape(new.shape)
                            new *= 1.0 / np.add.accumulate(new, axis).take([-1], axis)
                    (p1, a, b, pa, joint, cells, cells_0, cells_1, cells_rest,
                     delta, flat, terms, w_obs, delta_lift, w_rijk, a_rows, b_rows,
                     cells_i, p1_i, cells_ij, a_ij, a_i, a_rows_i, cells_r,
                     b_jk, b_j, b_rows_j) = _views(shape, buffers, n)
                    rows = list(range(n))
                # the oldest running restart, the first, reaches maxiter first
                changed, stop = False, born[0] + maxiter
            multiply(multiply(p1, a, pa), b, joint)
            # the sum over j, slice by slice as numpy sums a strided axis
            add(cells_0, cells_1, delta)
            for cells_j in cells_rest:
                add(delta, cells_j, delta)
            values = _loglik_rows(w_obs, gather, flat, terms).tolist()
            # the rows that joined maxiter iterations ago report their final
            # iterates' values
            if it == stop or NEG_INF in values:
                leave([it - t == maxiter or v == NEG_INF
                       for t, v in zip(born, values)], False)
            if trace is not None:
                trace.extend(values)
            # with EM_SLACK >= 0 a decrease beyond it is a gain below tol;
            # the rows that joined in this iteration have no previous value
            if ll_old and (EM_SLACK < 0.0 or (
                    values[0] - ll_old[0] if len(ll_old) == 1
                    else min(map(sub, values, ll_old))) < tol):
                old = np.array(ll_old)
                head = np.array(values[:len(old)])
                floor = old - EM_SLACK * np.maximum(1.0, np.abs(old))
                for r in np.flatnonzero(head < floor).tolist():
                    errors[live[r]] = GeometryError(
                        f"EM log-likelihood decreased: {float(old[r])!r}"
                        f" -> {float(head[r])!r}")
                stops = ((head < floor) | (head - old < tol)).tolist()
                leave(stops + [False] * (len(live) - len(old)), True)
            ll_old = values
            if not live:
                continue
            # responsibilities, then expected counts, in the cells' memory
            if gather is not None:
                add(delta, delta_lift, delta)
            multiply(divide(cells, delta, cells), w_rijk, cells)
            divide(reduce(cells_i, 1, None, p1_i), total, p1_i)
            # the row masses of a and b, then their sums
            reduce(cells_ij, 1, None, a_ij)
            reduce(a_i, 1, None, a_rows_i)
            if a_rows_positive:
                divide(a_i, a_rows, a_i)
            else:
                a_i[...] = np.where(a_rows > 0.0,
                                    a_i / np.where(a_rows > 0, a_rows, 1.0), 1.0 / r2)
            reduce(cells_r, 1, None, b_jk)
            reduce(b_j, 1, None, b_rows_j)
            if np.count_nonzero(b_rows) == b_rows.size:
                divide(b_j, b_rows, b_j)
            else:
                b_j[...] = np.where(b_rows > 0.0,
                                    b_j / np.where(b_rows > 0, b_rows, 1.0), 1.0 / r3)
    p1, a, b, *rest = map(np.array, zip(*finals[:examined]))
    return _EmRuns(*_unit_rows(p1, a, b), *rest,
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


#: points of each scan that narrows the exit bracket of a profile path
_SCAN = 16


def profile_along_fiber(counts: CountTable, params: ChainParams,
                        q_end: MixingMatrix, steps: int) -> ProfileTrace:
    """Trace the log-likelihood along the straight path to ``q_end``.

    Because every valid q(t) preserves the marginal, the trace is a flat
    ridge: max - min stays at rounding level however degenerate the
    endpoint.  If some q(t) leaves the validity polytope,
    :class:`PathExitsPolytope` carries the valid prefix rows and ``exit_t``.

    All steps go through one stacked call of the mixing kernel :func:`_mix`,
    which accepts q with det q > DET_EPS only, the identity's side of the
    singular matrices, one stacked log-likelihood and the row test of the
    value types on the moved a and b (p1 does not move, and tables are not
    checked), each member with the arithmetic of
    :func:`~latentgeom.fiber.apply_mixing` and :func:`loglik` on its own.
    The first step that fails raises what a step-by-step walk raises there.
    ``exit_t`` is the last float the kernel accepts before the first it
    rejects, on the first crossing that scans of ``_SCAN`` points see.
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
    ts = np.linspace(0.0, 1.0, steps)
    qs = _q_path(q_end.q, ts)
    a, b, valid = _mix(params, qs)
    # steps the kernel rejects carry placeholders that may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = _snap(a), _snap(b)
        delta = np.einsum("i,kij,kjl->kijl", params.p1, a, b).sum(axis=2)
        ll = _loglik_rows(*_observed(counts.counts), delta.reshape(steps, -1))
    min_entry = np.minimum(np.minimum(params.p1.min(), a.min(axis=(1, 2))),
                           b.min(axis=(1, 2)))
    # the steps on which apply_mixing and loglik raise nothing: the kernel's
    # mask and the row checks of ChainParams on the moved a and b
    ok = valid & _stochastic(a) & _stochastic(b)
    first = steps if ok.all() else int(np.argmin(ok))
    rows = list(zip(ts[:first].tolist(), ll[:first].tolist(),
                    min_entry[:first].tolist()))
    if first < steps:
        if valid[first]:
            # a moved row fails the row test, which raises here
            ChainParams(params.shape, params.p1, a[first], b[first])
        # rows of q off 1 raise here, and a singular q is an exit
        with contextlib.suppress(SingularMixing):
            MixingMatrix(qs[first])
        # q = I passes the mask, so first >= 1; each scan keeps the cell
        # before its first rejected point, until the cell stops shrinking
        lo, hi = ts[first - 1], ts[first]
        while True:
            grid = np.linspace(lo, hi, _SCAN)
            k = int(np.argmin(_mix(params, _q_path(q_end.q, grid))[2]))
            if grid[k - 1] == lo and grid[k] == hi:
                raise PathExitsPolytope(rows, float(lo))
            lo, hi = grid[k - 1], grid[k]
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
