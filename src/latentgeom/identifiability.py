"""Deciding whether an observed marginal admits a hidden-variable chain model.

A necessary check runs first and can prove infeasibility outright: a
marginal of an r2-state chain has rank <= r2, so a table whose singular
values past the r2-th bound every such marginal's divergence above tol is
infeasible (the rank-2 cross-ratio identity of a positive 3 x 3 marginal,
delta00 det(delta) / (delta10 delta20 delta01 delta02), is the same
condition).  When r2 >= min(r1, r3), or the rank is <= 2 (then the
nonnegative rank, Cohen & Rothblum 1993), an exact witness is written down:
the rows of p(Y3 | Y2) are the vertices of a simplex holding every row
p(Y3 | Y1 = i), and p(Y2 | Y1) holds their barycentric weights.  At rank
3 <= r2 a tangent walk looks for such a polygon nested between the rows'
hull and the simplex.  Every other target runs a multistart EM search minimising
KL(target || model marginal); "infeasible" then means "not found within
budget", which ``proven_infeasible_by`` tells apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .likelihood import NEG_INF, _at_observed, _check_budget, _em_batch, _observed
from .model import (
    _EPS,
    CLAMP_EPS,
    RANK_CUTOFF,
    ChainParams,
    MarginalTable,
    Shape,
    _numerical_rank,
    _stochastic,
    _unit_chains,
    _unit_rows,
)
from .shapes import _check_count


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a feasibility decision.

    ``feasible`` implies ``best_divergence < tol``; a failed necessary check
    forces infeasibility and is named in ``proven_infeasible_by``, while
    ``proven_infeasible_by = None`` with ``feasible = False`` only means the
    search budget was exhausted.  ``divergences`` holds the final KL
    divergence of each EM restart the search examined, in seed order (inf
    for a restart stopped by a zero-probability observed cell; none when no
    search ran), and ``restart_iterations`` the EM updates each made before
    it stopped.  ``divergence_bound`` is below the divergence of every chain
    with r2 states (0 when r2 >= min(r1, r3)); the ``"rank"`` check fails
    when it exceeds tol, not whenever the rank exceeds r2.
    """

    feasible: bool
    best_divergence: float
    witness: ChainParams | None
    necessary_checks: dict[str, bool]
    proven_infeasible_by: str | None
    tol: float
    divergences: tuple[float, ...] = ()
    restart_iterations: tuple[int, ...] = ()
    divergence_bound: float = 0.0

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
    return _numerical_rank(target.cells)[0]


def _kl_rows(p: np.ndarray, gather: np.ndarray | None, delta: np.ndarray) -> np.ndarray:
    """:func:`kl_divergence` of the target's cells ``p`` at ``gather``, as ``_observed``
    gives them, to each member of a stack of marginals ``delta`` (K, r1, r3)."""
    q = _at_observed(gather, delta.reshape(len(delta), -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.add.reduce(p * (np.log(p) - np.log(q)), 1)
        return np.where(np.logical_or.reduce(q <= 0.0, 1), np.inf,
                        np.where(kl > 0.0, kl, 0.0))


def kl_divergence(target: MarginalTable, model: MarginalTable) -> float:
    """KL(target || model) over the target's support; +inf on support escape.

    Rounding can push the sum of a near-exact fit a few ulps below zero;
    the result is clamped at 0, the divergence's true lower bound.
    """
    if target.shape != model.shape:
        raise InvalidParameter(
            f"target has shape {target.shape}, model has shape {model.shape}")
    return float(_kl_rows(*_observed(target.cells), model.cells[None])[0])


def _divergences(observed: tuple, p1: np.ndarray, a: np.ndarray, b: np.ndarray) -> list:
    """The divergence from the target's cells ``observed`` of each chain of stacks p1, a and
    b, with the arithmetic of ``marginal_13(joint_from_chain(...))`` and :func:`kl_divergence`."""
    delta = np.add.reduce(np.einsum("ri,rij,rjk->rijk", p1, a, b), 2)
    return _kl_rows(*observed, delta).tolist()


def _exact_witness(target: MarginalTable, r2: int, rank: int) -> tuple | None:
    """The p1, a and b of a chain that reproduces ``target`` exactly, for
    r2 >= min(r1, r3) or rank <= 3; None if a rank-3 target's
    :func:`_nested_polygon` finds no polygon.

    The rows of ``b`` are the vertices of a polygon that holds every
    conditional row p(Y3 | Y1 = i), and row i of ``a`` holds that row's
    barycentric weights, so a @ b is the conditional table.  The vertices
    are the unit vectors when r2 >= r3 (Y2 copies Y3), the rows themselves
    when r2 >= r1 (Y2 copies Y1), the two ends of the segment the rows of a
    rank <= 2 target lie on, and otherwise the nested polygon's corners.
    Unused states get a zero ``a`` column and a uniform ``b`` row; a state
    of Y1 with zero mass gets a uniform ``a`` row, or its own uniform
    vertex when Y2 copies Y1.  ``_unit_rows`` divides every row by its sum,
    from entries >= 0 or NaN (rounding keeps the segment's t in [0, 1]).
    """
    r1, r3 = target.shape
    p1 = np.add.reduce(target.cells, 1)    # as .sum(axis=1), without its wrapper
    a, b = np.zeros((r1, r2)), np.full((r2, r3), 1.0 / r3)
    if (live := p1 > 0.0).all():
        live = slice(None)      # no boolean gathers
    else:
        a[~live] = 1.0 / r2
    (rows,) = _unit_rows(target.cells[live])
    if r2 >= r3:
        a[live, :r3] = rows
        b[:r3] = np.eye(r3)
    elif r2 >= r1:
        a = np.eye(r1, r2)
        b[:r1][live] = rows
    elif rank <= 2:
        # the rows lie on a segment: project them on its direction
        centred = rows - np.add.reduce(rows, 0) / len(rows)    # the mean's bits
        s = rows @ np.linalg.svd(centred, full_matrices=False)[2][0]
        lo, hi = int(s.argmin()), int(s.argmax())
        span = s[hi] - s[lo]
        t = (s - s[lo]) / span if span > 0.0 else np.ones(len(s))
        b[0], b[1] = rows[lo], rows[hi]
        a[live, 0], a[live, 1] = 1.0 - t, t
    elif (polygon := _nested_polygon(rows, r2)) is None:
        return None
    else:
        b[:len(polygon[0])], a[live] = polygon
    return _unit_rows(p1, a, b)


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:  # u x v in the plane
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _hull(points: np.ndarray) -> np.ndarray:
    """Indices of the corners of the convex hull of ``points`` (n, 2),
    counterclockwise, collinear points left out (Andrew's monotone chain)."""
    p, out, floor = points.tolist(), [], 1
    def left(i, j, k):  # i -> j -> k turns counterclockwise
        return (p[j][0] - p[i][0]) * (p[k][1] - p[i][1]) > (p[j][1] - p[i][1]) * (p[k][0] - p[i][0])
    order = sorted(range(len(p)), key=p.__getitem__)
    for k in order + order[-2::-1]:     # the lower side, then the upper
        while len(out) > floor and not left(out[-2], out[-1], k):
            out.pop()
        out.append(k)
        floor = len(out) if k == order[-1] else floor
    return np.array(out[:-1])


def _nested_polygon(rows: np.ndarray, r2: int) -> tuple | None:
    """The corners of a polygon with at most r2 of them between the hull P
    of the rank-3 ``rows`` and their plane's cut Q of the simplex (Gillis &
    Glineur 2012), and each row's barycentric weights; None if none is
    found.  A walk from Q's boundary follows the tangent to P, with P on
    its left, to the boundary, at most r2 times; its points bound a polygon
    holding P once it goes round (Aggarwal, Booth, O'Rourke, Suri & Yap
    1989).  It starts at every cut: Q's corners and where the tangent point
    changes, pulled back as many steps.  Points within RANK_CUTOFF are one;
    entries <= CLAMP_EPS are zero.  Memory is bounded; hulls take n log n."""
    mean, near = rows.mean(axis=0), RANK_CUTOFF
    frame = np.linalg.svd(rows - mean, full_matrices=False)[2][:2]
    y = (rows - mean) @ frame.T          # the rows in the plane's 2-d frame
    p = y[_hull(y)]                      # P's corners
    # Q is u_k . y <= 1: x_k = c_k (1 - u_k . y) for the columns not zero on
    # the plane, c_k > 0; its sides are the corners of the u_k's hull (polar duality)
    keep = np.hypot(*frame) > near
    u = -frame.T[keep] / mean[keep, None]
    u = u[_hull(u)]
    w, det = np.roll(u, -1, axis=0), _cross(u, np.roll(u, -1, axis=0))
    meet = det > near * np.hypot(*u.T) * np.hypot(*w.T)    # not one side twice
    v = np.stack([w[:, 1] - u[:, 1], u[:, 0] - w[:, 0]], axis=1)[meet] / det[meet, None]
    v = v[np.argsort(np.arctan2(v[:, 1], v[:, 0]))]
    v = v[np.hypot(*(v - np.roll(v, 1, axis=0)).T) > near]
    edge = np.roll(v, -1, axis=0) - v
    m, length, angle = len(v), np.hypot(*edge.T), np.arctan2(*v.T[::-1])
    steps = min(r2, m, len(p))     # a walk from a corner goes round in as many

    def leave(z, d):    # where rays z + lam d leave Q: e + t, v[e] + t edge[e]
        ud = d @ u.T
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(ud > near * np.hypot(*d.T)[:, None] * np.hypot(*u.T),
                           (1.0 - z @ u.T) / ud, np.inf).min(axis=1)
        z = z + np.maximum(lam, 0.0)[:, None] * d
        e = (np.searchsorted(angle, np.arctan2(*z.T[::-1]), side="right") - 1) % m
        t = np.clip(np.einsum("ij,ij->i", z - v[e], edge[e]) / length[e] ** 2, 0, 1)
        # an exit within near of a corner is the corner
        t = np.where(np.abs(t - np.round(t)) * length[e] <= near, np.round(t), t)
        return e + t, v[e] + t[:, None] * edge[e]

    def walk(s, sign):  # starts s >= 0 and the steps, counterclockwise or back
        if len(s) * (len(p) + m) > 2 ** 18:     # in bounded memory: by halves
            halves = zip(*(walk(part, sign) for part in np.array_split(s, 2)))
            return [tuple(map(np.concatenate, zip(*step))) for step in halves]
        path = [(s, v[(e := s.astype(int) % m)] + (s % 1)[:, None] * edge[e])]
        for _ in range(steps):
            s, z = path[-1]
            # -z . (p - z) and -z x (p - z): the turn from the mean to each corner
            zz = (z * z).sum(axis=1)[:, None]
            along, across = zz - z @ p.T, z[:, 1:] * p[:, 0] - z[:, :1] * p[:, 1]
            turn = sign * np.arctan2(across, along)
            turn[along ** 2 + across ** 2 <= near ** 2 * zz] = np.inf
            out, z = leave(z, p[np.argmin(turn, axis=1)] - z)
            path.append((s + sign * ((sign * (out - s) + near) % m - near), z))
        return path

    # P's edges, with P on their left, cut Q where their lines enter it
    cuts = np.concatenate([np.arange(m, dtype=float),
                           leave(p, p - np.roll(p, -1, axis=0))[0]])
    cuts = np.concatenate([s for s, _ in walk(cuts, -1)]) % m
    path = walk(cuts, 1)
    # the furthest walk's points up to the step that closes the polygon
    best = int(np.argmax(path[-1][0] - cuts))
    s, z = (np.array([part[best] for part in parts]) for parts in zip(*path))
    z = z[:np.argmax(s >= s[0] + m - near)]
    if s[-1] < s[0] + m - near or len(z) < 3:
        return None
    # weights in the fan triangle (z0, z_n, z_n+1), not flat, a row is deepest in
    ab, ac, ay = z[1:-1, None] - z[0], z[2:, None] - z[0], y - z[0]
    area = _cross(ab, ac)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.stack([_cross(ay, ac), _cross(ab, ay)]) / area
        w = np.concatenate([1.0 - w.sum(axis=0, keepdims=True), w])
        n = np.argmax(np.where(area > near * np.sqrt((ab * ab).sum(-1) * (
            ac * ac).sum(-1)), w.min(axis=0), -np.inf), axis=0)
    weights, corners = np.zeros((len(y), r2)), mean + z @ frame
    weights[np.arange(len(y))[:, None], np.stack([0 * n, n + 1, n + 2], axis=1)] = (
        w[:, n, np.arange(len(y))].T)
    for x in (weights, corners):
        x[x <= CLAMP_EPS] = 0.0
    return corners, weights


def consistency_check(target: MarginalTable, r2: int, restarts: int = 64,
                      tol: float = 1e-8, seed: int = 0,
                      maxiter: int = 500) -> ConsistencyReport:
    """Decide whether ``target`` is reachable by a chain model with r2 states.

    By Eckart-Young and Pinsker, every chain's divergence is at least half
    the sum of the target's squared singular values past the r2-th (no SVD
    when r2 >= min(r1, r3)).  LAPACK's singular values are exact for a table
    within p eps ||target||_2 (Users' Guide 4.9, p a modest function of the
    shape); assuming it within r1 r3 eps in the Frobenius norm, the
    half-sum's root moves by as much (Mirsky) and, as ||target||_F <= 1, the
    half-sum by 2 r1 r3 eps at most.  A computed divergence under tol (< 1/2
    for a proof), r1 r3 log terms with |H| <= log(r1 r3) and |L| <= |H| + 1,
    is within 4 r1 r3 eps (1 + log(r1 r3)) of the true one.  Less 4 r1 r3
    eps (2 + log(r1 r3)), the half-sum is ``divergence_bound``: a rank above
    r2 proves infeasibility when it exceeds tol, and otherwise goes to the
    search.  A target with r2 >= min(r1, r3) or rank <= 2, or of rank 3 <=
    r2 with a nested polygon that certifies, is decided by the witness of
    :func:`_exact_witness`, without ``restarts``, ``maxiter`` or ``seed``.
    Its rows, like the best restart's, become a ``ChainParams`` through
    :func:`~latentgeom.model._unit_chains`; the search ends with the row
    test of every restart it examined: one that fails raises its error.

    The search is one run of the EM kernel, which takes the restarts in
    seed order as lanes free up: one lane at first, twice as many, up to
    64, after each restart that stops uncertified.  At r2 = 3 all 64 open
    at once: with no nested triangle only a restart within tol of the
    feasible set could stop early.  Every restart follows the arithmetic of
    a run on its own, and a restart that certifies drops only restarts
    after it, which the reduction never reaches; so the report does not
    depend on the schedule.  An EM run whose log-likelihood decreases
    raises :class:`GeometryError` when the reduction reaches it.

    A stopped restart is first tested on the log-likelihood L the kernel
    computed.  Its divergence is H - L' for H = sum p log p and L' the
    log-likelihood of its renormalised rows.  To first order, renormalising
    moves the row sums of p1, a and b by r1 + r2 r3, r2 + 1 and r3 + 1 ulps
    at most, either product order is within a relative (r2 + 2) eps of a
    model cell, and H, L and the divergence, sums of at most r1 r3 log
    terms, are within (r1 r3 + 3) eps of |H|, |L| and |H| + |L|.  As
    r2 >= 3 and r1, r3 >= 4, all of it is below 2 r1 r2 r3 eps (1 + |H| +
    |L|), half the margin: a restart with L <= H - tol - margin cannot
    certify, and one above it is checked exactly, as all are at the end.
    """
    _check_count("r2", r2, 2)
    _check_count("restarts", restarts, 1)
    _check_count("seed", seed, 0)
    _check_budget(maxiter, tol)
    r1, r3 = target.shape
    rank, sv = (0, ()) if r2 >= min(r1, r3) else _numerical_rank(target.cells)
    bound = max(math.fsum(s * s for s in sv[r2:]) / 2
                - 4 * r1 * r3 * _EPS * (2.0 + math.log(r1 * r3)), 0.0)
    checks = {"rank": rank <= r2 or bound <= tol}
    if not checks["rank"]:
        return ConsistencyReport(False, float("inf"), None, checks, "rank", tol,
                                 divergence_bound=bound)

    shape, observed = Shape(r1, r2, r3), _observed(target.cells)
    found = _exact_witness(target, r2, rank) if rank <= min(r2, 3) else None
    if found is not None:
        witness = _unit_chains(shape, found[0], found[1][None], found[2][None])[0]
        (best,) = _divergences(observed, *(x[None] for x in found))
        if rank <= 2 or best < tol:
            return ConsistencyReport(bool(best < tol), best, witness, checks, None, tol,
                                     divergence_bound=bound)

    entropy = float(observed[0] @ np.log(observed[0]))

    def certifies(p1, a, b, ll):     # the docstring's bound, then exactly
        margin = 4 * r1 * r2 * r3 * _EPS * (1.0 + abs(entropy) + abs(ll))
        return (ll > entropy - tol - margin and _divergences(
            observed, *_unit_rows(p1[None], a[None], b[None]))[0] < tol)

    runs = _em_batch(target.cells, shape,
                     (np.random.default_rng([seed, k]) for k in range(restarts)),
                     maxiter, tol=1e-12, certifies=certifies,
                     lanes=64 if r2 == 3 else 1)
    ok = (_stochastic(runs.p1[:, None]) & _stochastic(runs.a) & _stochastic(runs.b)).tolist()
    kls = _divergences(observed, runs.p1, runs.a, runs.b)
    best, at, divergences = float("inf"), None, []
    for r, kl in enumerate(kls):
        if r in runs.errors:
            raise runs.errors[r]
        if runs.loglik[r] == NEG_INF:
            kl = float("inf")
        elif not ok[r]:     # the row test is exact, so this raises
            ChainParams(shape, runs.p1[r], runs.a[r], runs.b[r])
        divergences.append(kl)
        if kl < best:
            best, at = kl, r
        if best < tol:
            break
    witness = None if at is None else runs.params(shape, at)
    return ConsistencyReport(bool(best < tol), best, witness, checks, None, tol,
                             tuple(divergences),
                             tuple(runs.iterations[:len(divergences)].tolist()), bound)


def is_regular(params: ChainParams) -> bool:
    """True iff p(Y2|Y1) or p(Y3|Y2) is strictly positive throughout."""
    return bool((params.a > 0.0).all() or (params.b > 0.0).all())
