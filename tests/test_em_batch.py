"""The batched EM kernel against a serial reference, bitwise.

``_reference_run`` is the one-restart EM loop the kernel replaced, and
``_reference_search`` / ``_reference_fit`` its restart loops in
``consistency_check`` and ``em_fit_details``.  Every restart of the kernel
must follow the reference's arithmetic exactly, whatever block it runs in.
``_reference_kl`` is the one-table divergence that the search's stacked
divergences replaced.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from latentgeom import (  # noqa: E402
    ChainParams,
    CountTable,
    GeometryError,
    MarginalTable,
    Shape,
    consistency_check,
    em_fit_details,
    joint_from_chain,
    kl_divergence,
    marginal_13,
    marginal_rank,
)
from latentgeom import likelihood  # noqa: E402
from latentgeom.likelihood import _em_batch  # noqa: E402

SEEDS = st.integers(0, 2 ** 32 - 1)
#: slack matrix of the unit square: rank 3, nonnegative rank 4
SQUARE_SLACK = np.array([[0.0, 1.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 1.0, 0.0],
                         [0.0, 1.0, 1.0, 0.0]])


class _Zero(Exception):
    """A zero-probability observed cell, met after ``args[0]`` updates."""


def _reference_run(weights, shape, rng, maxiter, tol, trace=None):
    r1, r2, r3 = shape.astuple()
    total = float(weights.sum())
    p1 = rng.dirichlet(np.ones(r1))
    a = np.vstack([rng.dirichlet(np.ones(r2)) for _ in range(r1)])
    b = np.vstack([rng.dirichlet(np.ones(r3)) for _ in range(r2)])
    observed = weights > 0

    def current_ll():
        cells = np.einsum("i,ij,jk->ijk", p1, a, b)
        delta = cells.sum(axis=1)
        if (delta[observed] <= 0.0).any():
            raise _Zero(iterations)
        value = float(np.sum(weights[observed] * np.log(delta[observed])))
        return value, cells, delta

    ll_old = None
    converged = False
    iterations = 0
    for it in range(maxiter):
        ll, cells, delta = current_ll()
        if trace is not None:
            trace.append(ll)
        if ll_old is not None:
            if ll < ll_old - likelihood.EM_SLACK * max(1.0, abs(ll_old)):
                raise RuntimeError(
                    f"EM log-likelihood decreased: {ll_old!r} -> {ll!r}")
            if ll - ll_old < tol:
                converged = True
                break
        ll_old = ll
        iterations = it + 1
        safe = np.where(delta > 0.0, delta, 1.0)
        resp = cells.transpose(0, 2, 1) / safe[:, :, None]
        nhat = weights[:, :, None] * resp
        p1 = nhat.sum(axis=(1, 2)) / total
        a_mass = nhat.sum(axis=1)
        a_rows = a_mass.sum(axis=1, keepdims=True)
        a = np.where(a_rows > 0.0, a_mass / np.where(a_rows > 0, a_rows, 1.0),
                     1.0 / r2)
        b_mass = nhat.sum(axis=0).T
        b_rows = b_mass.sum(axis=1, keepdims=True)
        b = np.where(b_rows > 0.0, b_mass / np.where(b_rows > 0, b_rows, 1.0),
                     1.0 / r3)
    else:
        ll, _, _ = current_ll()
    params = ChainParams(shape, p1 / p1.sum(),
                         a / a.sum(axis=1, keepdims=True),
                         b / b.sum(axis=1, keepdims=True))
    return params, ll, iterations, converged


def _reference_kl(target, model):
    p, q = target.cells, model.cells
    mask = p > 0.0
    if (q[mask] <= 0.0).any():
        return float("inf")
    return max(0.0, float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask])))))


def _reference_search(target, r2, restarts, tol, seed, maxiter, rng_of=None):
    rng_of = rng_of or (lambda k: np.random.default_rng([seed, k]))
    r1, r3 = target.shape
    best, witness, divergences, iterations = float("inf"), None, [], []
    for restart in range(restarts):
        try:
            params, _, done, _ = _reference_run(
                target.cells, Shape(r1, r2, r3), rng_of(restart), maxiter,
                1e-12)
        except _Zero as zero:
            divergences.append(float("inf"))
            iterations.append(zero.args[0])
            continue
        kl = _reference_kl(target, marginal_13(joint_from_chain(params)))
        divergences.append(kl)
        iterations.append(done)
        if kl < best:
            best, witness = kl, params
        if best < tol:
            break
    return (bool(best < tol), best, witness, tuple(divergences),
            tuple(iterations))


def _reference_fit(counts, shape, seed, maxiter, tol):
    weights = counts.counts.astype(float)
    for attempt in range(16):
        try:
            return _reference_run(weights, shape,
                                  np.random.default_rng(seed + attempt),
                                  maxiter, tol)
        except _Zero:
            continue
    raise RuntimeError("EM restarted 16 times on zero responsibilities")


def _same_params(p, q):
    if p is None or q is None:
        return p is None and q is None
    return (p.shape == q.shape and np.array_equal(p.p1, q.p1)
            and np.array_equal(p.a, q.a) and np.array_equal(p.b, q.b))


@st.composite
def search_targets(draw):
    """Tables with 3 <= rank <= r2 < min(r1, r3), the ones EM decides:
    the square slack matrix (nonnegative rank 4 at r2 = 3) or the marginal
    of a chain with small integer weights, zero cells included."""
    if draw(st.booleans()):
        rows = draw(st.permutations(range(4)))
        cols = draw(st.permutations(range(4)))
        cells = SQUARE_SLACK[list(rows)][:, list(cols)]
        return MarginalTable((4, 4), cells / cells.sum()), 3
    r2 = draw(st.integers(3, 4))
    r1 = draw(st.integers(r2 + 1, r2 + 2))
    r3 = draw(st.integers(r2 + 1, r2 + 2))

    def weights(n, m):
        flat = draw(st.lists(st.integers(0, 3), min_size=n * m,
                             max_size=n * m))
        table = np.array(flat, dtype=float).reshape(n, m)
        assume((table.sum(axis=1) > 0).all())
        return table / table.sum(axis=1, keepdims=True)

    p1, a, b = weights(1, r1)[0], weights(r1, r2), weights(r2, r3)
    cells = (p1[:, None] * a) @ b
    assume(3 <= marginal_rank(MarginalTable((r1, r3), cells)) <= r2)
    return MarginalTable((r1, r3), cells / cells.sum()), r2


@settings(max_examples=30, deadline=None)
@given(case=search_targets(), restarts=st.sampled_from([1, 3, 5, 64]),
       maxiter=st.sampled_from([0, 1, 7, 60]),
       tol=st.sampled_from([1e-8, 1e-3]), seed=SEEDS)
def test_search_equals_serial_reference(case, restarts, maxiter, tol, seed):
    target, r2 = case
    report = consistency_check(target, r2, restarts=restarts, tol=tol,
                               seed=seed, maxiter=maxiter)
    feasible, best, witness, divergences, iterations = _reference_search(
        target, r2, restarts, tol, seed, maxiter)
    assert report.feasible == feasible
    assert np.array_equal(report.best_divergence, best)
    assert _same_params(report.witness, witness)
    assert np.array_equal(report.divergences, divergences)
    assert report.restarts_tried == len(divergences)
    assert report.restart_iterations == iterations
    assert all(type(n) is int for n in report.restart_iterations)


@settings(max_examples=60, deadline=None)
@given(r1=st.integers(1, 6), r3=st.integers(1, 6), data=st.data())
def test_kl_divergence_equals_serial_reference(r1, r3, data):
    # zero cells on either side: outside the target's support, and support
    # escapes of the model
    def table():
        flat = data.draw(st.lists(st.integers(0, 4), min_size=r1 * r3,
                                  max_size=r1 * r3))
        cells = np.array(flat, dtype=float).reshape(r1, r3)
        assume(cells.sum() > 0)
        return MarginalTable((r1, r3), cells / cells.sum())

    target, model = table(), table()
    for other in (model, target):
        assert np.array_equal(kl_divergence(target, other),
                              _reference_kl(target, other))


@settings(max_examples=40, deadline=None)
@given(r1=st.integers(2, 5), r2=st.integers(2, 3), r3=st.integers(2, 5),
       data=st.data(), seed=st.integers(0, 2 ** 31),
       maxiter=st.sampled_from([0, 1, 7, 60]),
       tol=st.sampled_from([1e-10, 1e-4]))
def test_fit_equals_serial_reference(r1, r2, r3, data, seed, maxiter, tol):
    flat = data.draw(st.lists(st.integers(0, 20), min_size=r1 * r3,
                              max_size=r1 * r3))
    assume(sum(flat) > 0)
    counts = CountTable((r1, r3), np.reshape(flat, (r1, r3)))
    shape = Shape(r1, r2, r3)
    fit = em_fit_details(counts, shape, seed=seed, maxiter=maxiter, tol=tol)
    params, ll, iterations, converged = _reference_fit(counts, shape, seed,
                                                       maxiter, tol)
    assert _same_params(fit.params, params)
    assert type(fit.loglik) is float and np.array_equal(fit.loglik, ll)
    assert fit.iterations == iterations
    assert fit.converged == converged


def _check_batch(weights, shape, seed, restarts, maxiter, tol):
    """One kernel call against a reference run per restart: final iterates,
    logliks, counts and the trace, all bitwise.  The logliks matter: they
    decide convergence, so a rounding difference in one would change which
    iterate a later run reports."""
    trace = []
    runs = _em_batch(weights, shape, [np.random.default_rng([seed, k])
                                      for k in range(restarts)],
                     maxiter, tol, trace)
    traces = []
    for k in range(restarts):
        traces.append([])
        try:
            params, ll, iterations, converged = _reference_run(
                weights, shape, np.random.default_rng([seed, k]), maxiter,
                tol, traces[-1])
        except _Zero as zero:
            assert runs.loglik[k] == float("-inf")
            assert runs.iterations[k] == zero.args[0]
            assert not runs.converged[k]
            continue
        assert _same_params(runs.params(shape, k), params)
        assert np.array_equal(runs.loglik[k], ll)
        assert runs.iterations[k] == iterations
        assert runs.converged[k] == converged
    assert not runs.errors
    # the kernel traces the running restarts of each iteration in order
    assert trace == [t[it] for it in range(max(map(len, traces)))
                     for t in traces if it < len(t)]


@settings(max_examples=40, deadline=None)
@given(r1=st.integers(2, 6), r2=st.integers(2, 4), r3=st.integers(2, 6),
       data=st.data(), seed=SEEDS, restarts=st.integers(1, 8),
       maxiter=st.sampled_from([0, 1, 7, 60]),
       tol=st.sampled_from([1e-12, 1e-6]))
def test_batch_equals_serial_reference(r1, r2, r3, data, seed, restarts,
                                       maxiter, tol):
    flat = data.draw(st.lists(st.integers(0, 9), min_size=r1 * r3,
                              max_size=r1 * r3))
    assume(sum(flat) > 0)
    weights = np.reshape(flat, (r1, r3)) / sum(flat)
    _check_batch(weights, Shape(r1, r2, r3), seed, restarts, maxiter, tol)


@settings(max_examples=25, deadline=None)
@given(r1=st.integers(2, 10), r2=st.integers(2, 5), r3=st.integers(9, 12),
       data=st.data(), seed=SEEDS, restarts=st.integers(1, 8),
       maxiter=st.sampled_from([1, 7, 60]),
       tol=st.sampled_from([1e-12, 1e-6]))
def test_wide_batch_with_zero_cells_equals_serial_reference(
        r1, r2, r3, data, seed, restarts, maxiter, tol):
    # from 8 terms numpy sums a contiguous row 8 ways at once, so rows of
    # 9 to 12 cells pin the pairwise k-sums; one zero cell at least puts
    # every restart on the gathered log-likelihood
    flat = data.draw(st.lists(st.integers(0, 9), min_size=r1 * r3,
                              max_size=r1 * r3))
    flat[data.draw(st.integers(0, r1 * r3 - 1))] = 0
    assume(sum(flat) > 0)
    weights = np.reshape(flat, (r1, r3)) / sum(flat)
    _check_batch(weights, Shape(r1, r2, r3), seed, restarts, maxiter, tol)


# r2 = 9 puts the rows of a past 8 terms too
@pytest.mark.parametrize("shape", [(10, 5, 12), (9, 3, 9), (4, 9, 5)])
def test_batch_of_64_restarts_equals_serial_reference(shape):
    r1, _, r3 = shape
    rng = np.random.default_rng(sum(shape))
    counts = rng.integers(0, 9, size=(r1, r3)) * (rng.random((r1, r3)) > 0.2)
    _check_batch(counts / counts.sum(), Shape(*shape), 11, 64, 60, 1e-10)


class _FixedStart:
    """Stands in for a generator: hands out given starting rows in the
    order p1, the rows of a, the rows of b."""

    def __init__(self, p1, a, b):
        self.rows = [np.asarray(p1, float), *np.asarray(a, float),
                     *np.asarray(b, float)]

    def dirichlet(self, alpha, size=None):
        if size is None:
            return self.rows.pop(0)
        return np.array([self.rows.pop(0) for _ in range(size)])


STARTS = [
    ([0.2, 0.3, 0.5], [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]],
     [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]),
    # Y1 = 1 gets no mass
    ([0.5, 0.0, 0.5], [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]],
     [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]),
    ([1 / 3] * 3, [[0.5, 0.5]] * 3, [[1 / 3] * 3] * 2),
    # hidden state 1 is never used: its b row has zero mass
    ([0.4, 0.4, 0.2], [[1.0, 0.0]] * 3, [[0.3, 0.3, 0.4], [0.2, 0.3, 0.5]]),
]


@pytest.mark.parametrize("counts, zero", [
    ([[4, 1, 0], [2, 5, 1], [0, 3, 6]], [1]),
    # the empty row of Y1 gets an a row of zero mass
    ([[4, 1, 0], [0, 0, 0], [0, 3, 6]], []),
])
@pytest.mark.parametrize("maxiter", [0, 1, 7, 60])
def test_restarts_in_one_batch_follow_the_reference(counts, zero, maxiter):
    weights = np.array(counts, dtype=float)
    shape = Shape(3, 2, 3)
    runs = _em_batch(weights, shape, [_FixedStart(*s) for s in STARTS],
                     maxiter, 1e-12)
    for r, start in enumerate(STARTS):
        if r in zero:
            with pytest.raises(_Zero):
                _reference_run(weights, shape, _FixedStart(*start), maxiter,
                               1e-12)
            assert runs.loglik[r] == float("-inf")
            continue
        params, ll, iterations, converged = _reference_run(
            weights, shape, _FixedStart(*start), maxiter, 1e-12)
        assert _same_params(runs.params(shape, r), params)
        assert np.array_equal(runs.loglik[r], ll)
        assert runs.iterations[r] == iterations
        assert runs.converged[r] == converged
    assert not runs.errors


def test_zero_cell_after_an_update_reports_the_updates_made():
    # the subnormal weight's row gets p1 = 0 from the first M-step, so the
    # second E-step meets a zero-probability observed cell
    weights = np.array([[5e-324, 0.0, 0.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    runs = _em_batch(weights, Shape(3, 2, 3),
                     [np.random.default_rng([3, k]) for k in range(4)],
                     60, 1e-12)
    assert runs.loglik.tolist() == [float("-inf")] * 4
    assert runs.iterations.tolist() == [1] * 4
    _check_batch(weights, Shape(3, 2, 3), 3, 4, 60, 1e-12)


def test_search_reports_zero_responsibility_restarts_as_infinite(monkeypatch):
    target = MarginalTable((4, 4), SQUARE_SLACK / SQUARE_SLACK.sum())
    real = np.random.default_rng

    def rng_of(key):
        if key[1] % 3 == 1:
            # Y1 = 0 gets no mass: its observed cells have zero probability
            rng = real(key)
            return _FixedStart([0.0, 0.5, 0.25, 0.25],
                               rng.dirichlet(np.ones(3), size=4),
                               rng.dirichlet(np.ones(4), size=3))
        return real(key)

    expected = _reference_search(target, 3, 10, 1e-8, 7, 60,
                                 rng_of=lambda k: rng_of([7, k]))
    monkeypatch.setattr(np.random, "default_rng", rng_of)
    report = consistency_check(target, 3, restarts=10, seed=7, maxiter=60)
    assert report.divergences == expected[3]
    assert [np.isinf(d) for d in report.divergences] == [
        k % 3 == 1 for k in range(10)]
    # a zero cell in the first E-step stops a restart before any update
    assert report.restart_iterations == expected[4]
    assert [report.restart_iterations[k] for k in (1, 4, 7)] == [0, 0, 0]
    assert np.array_equal(report.best_divergence, expected[1])
    assert _same_params(report.witness, expected[2])


def test_decrease_raises_the_reference_message(monkeypatch):
    monkeypatch.setattr(likelihood, "EM_SLACK", -1.0)
    counts = CountTable((3, 3), [[4, 1, 0], [2, 5, 1], [0, 3, 6]])
    with pytest.raises(RuntimeError) as expected:
        _reference_fit(counts, Shape(3, 2, 3), 0, 60, 1e-10)
    with pytest.raises(GeometryError, match="EM log-likelihood decreased") as got:
        em_fit_details(counts, Shape(3, 2, 3), seed=0, maxiter=60)
    assert str(got.value) == str(expected.value)


def test_search_blocks_are_capped_at_64_restarts(monkeypatch):
    # the square slack has nonnegative rank 4, so no restart at r2 = 3 is
    # certified and the search spends its whole budget
    from latentgeom import identifiability
    sizes = []
    real = identifiability._em_batch

    def recording(weights, shape, rngs, maxiter, tol):
        sizes.append(len(rngs))
        return real(weights, shape, rngs, maxiter, tol)

    monkeypatch.setattr(identifiability, "_em_batch", recording)
    target = MarginalTable((4, 4), SQUARE_SLACK / SQUARE_SLACK.sum())
    report = consistency_check(target, 3, restarts=300, seed=5, maxiter=5)
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 64, 64, 45]
    feasible, best, witness, divergences, iterations = _reference_search(
        target, 3, 300, 1e-8, 5, 5)
    assert not feasible and report.feasible == feasible
    assert np.array_equal(report.best_divergence, best)
    assert _same_params(report.witness, witness)
    assert np.array_equal(report.divergences, divergences)
    assert report.restarts_tried == 300
    assert report.restart_iterations == iterations
