import math
import re

import numpy as np
import pytest

from latentgeom import (
    ChainParams,
    CountTable,
    GeometryError,
    InvalidParameter,
    MarginalTable,
    MixingMatrix,
    PathExitsPolytope,
    Shape,
    consistency_check,
    em_fit_details,
    extreme_mixings,
    joint_from_chain,
    kl_divergence,
    loglik,
    marginal_13,
    permute_latent,
    profile_along_fiber,
    random_chain,
    rho_pi_bounds,
    sample_fiber,
)
from latentgeom.likelihood import _em_batch
from conftest import seeded_chain, seeded_marginal


def uniform_params(r1, r2, r3):
    return ChainParams(Shape(r1, r2, r3), np.full(r1, 1 / r1),
                       np.full((r1, r2), 1 / r2), np.full((r2, r3), 1 / r3))


def counts_from(params, n, seed):
    marg = marginal_13(joint_from_chain(params))
    draws = np.random.default_rng(seed).multinomial(n, marg.flat)
    return CountTable(marg.shape, draws.reshape(marg.shape))


# ---------------------------------------------------------------- loglik

def test_loglik_uniform():
    counts = CountTable((3, 3), np.full((3, 3), 4, dtype=int))
    got = loglik(counts, uniform_params(3, 2, 3))
    assert got == pytest.approx(36 * math.log(1 / 9), rel=1e-14)


def test_loglik_support_mismatch_is_minus_inf():
    params = ChainParams(Shape(2, 2, 2), [1.0, 0.0],
                         [[0.5, 0.5], [0.5, 0.5]],
                         [[0.5, 0.5], [0.5, 0.5]])
    counts = np.zeros((2, 2), dtype=int)
    counts[1, 0] = 1
    assert loglik(CountTable((2, 2), counts), params) == float("-inf")


def test_loglik_equals_masked_sum_bitwise():
    # the reference: a 1-d sum over the boolean-masked observed cells, -inf
    # when one of them has zero probability; the library sums gathered rows
    # of a stack, which must give the same bits
    for seed in range(300):
        rng = np.random.default_rng(seed)
        r1, r2, r3 = (int(x) for x in rng.integers(2, [12, 5, 12]))
        params = random_chain(Shape(r1, r2, r3), rng)
        if seed % 3 == 0:
            b = params.b.copy()
            b[:, 0] = 0.0
            params = ChainParams(params.shape, params.p1, params.a,
                                 b / b.sum(axis=1, keepdims=True))
        counts = rng.integers(0, 2 if seed % 2 else 50, size=(r1, r3))
        counts[0, 0] += 1
        counts = CountTable((r1, r3), counts)
        delta = marginal_13(joint_from_chain(params)).cells
        mask = counts.counts > 0
        want = (float("-inf") if (delta[mask] <= 0.0).any() else
                float(np.sum(counts.counts[mask] * np.log(delta[mask]))))
        got = loglik(counts, params)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_loglik_shape_mismatch():
    with pytest.raises(InvalidParameter,
                       match=r"counts shape \(2, 2\) does not match model "
                             r"\(3, 3\)"):
        loglik(CountTable((2, 2), [[1, 0], [0, 1]]), uniform_params(3, 2, 3))


@pytest.mark.parametrize("cells", [2, 4, 5])
def test_count_total_is_exact_past_int64(cells):
    # totals of 2**63, 2**64 and 5 * 2**62: an int64 sum wraps to 0, 0 and
    # 2**62
    counts = np.zeros((2, 3), dtype=np.int64)
    counts.flat[:cells] = 2 ** 62
    table = CountTable((2, 3), counts)
    assert table.total == cells * 2 ** 62
    assert type(table.total) is int


def test_loglik_invariant_on_fiber_50_pairs():
    for seed in range(50):
        params = seeded_chain((3, 2, 3), 600 + seed)
        counts = counts_from(params, 500, seed)
        base = loglik(counts, params)
        values = [loglik(counts, moved)
                  for moved in sample_fiber(params, 5, seed=seed)]
        assert max(abs(v - base) for v in values) < 1e-10


# ---------------------------------------------------------------- EM

def test_em_generative_round_trip():
    truth = seeded_chain((3, 2, 3), 77, floor=0.05)
    counts = counts_from(truth, 100_000, 123)
    fit = em_fit_details(counts, Shape(3, 2, 3), seed=0).params
    marg_true = marginal_13(joint_from_chain(truth))
    marg_fit = marginal_13(joint_from_chain(fit))
    assert kl_divergence(marg_true, marg_fit) < 1e-3


def test_em_monotone_loglik_trace():
    truth = seeded_chain((3, 2, 3), 13)
    counts = counts_from(truth, 2_000, 7)
    trace: list[float] = []
    _em_batch(counts.counts.astype(float), Shape(3, 2, 3),
              [np.random.default_rng(0)], maxiter=300, tol=1e-12, trace=trace)
    assert len(trace) > 5
    diffs = np.diff(np.array(trace))
    slack = 1e-12 * np.maximum(1.0, np.abs(np.array(trace[:-1])))
    assert (diffs >= -slack).all()


def test_em_infeasible_target_keeps_gap():
    cells = np.zeros((3, 3), dtype=int)
    cells[0, 0], cells[1, 1], cells[2, 2] = 3334, 3333, 3333
    counts = CountTable((3, 3), cells)
    fit = em_fit_details(counts, Shape(3, 2, 3), seed=0, maxiter=2000).params
    target = MarginalTable((3, 3), cells / cells.sum())
    gap = kl_divergence(target, marginal_13(joint_from_chain(fit)))
    assert gap > 1e-2


def test_em_single_cell_concentrates():
    cells = np.zeros((3, 3), dtype=int)
    cells[0, 0] = 5
    fit = em_fit_details(CountTable((3, 3), cells), Shape(3, 2, 3),
                         seed=1).params
    delta = marginal_13(joint_from_chain(fit)).cells
    assert delta[0, 0] > 0.999
    assert loglik(CountTable((3, 3), cells), fit) > 5 * math.log(0.999)


def test_em_details_metadata():
    truth = seeded_chain((2, 2, 2), 3)
    counts = counts_from(truth, 1_000, 5)
    fit = em_fit_details(counts, Shape(2, 2, 2), seed=4)
    assert fit.converged
    assert fit.iterations <= 500
    assert math.isfinite(fit.loglik)
    assert fit.loglik == pytest.approx(loglik(counts, fit.params), abs=1e-9)


@pytest.mark.parametrize("kwargs", [
    {"maxiter": -5}, {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
    {"tol": float("inf")},
])
def test_em_details_rejects_out_of_range_budget(kwargs):
    counts = counts_from(seeded_chain((2, 2, 2), 3), 100, 5)
    with pytest.raises(InvalidParameter):
        em_fit_details(counts, Shape(2, 2, 2), **kwargs)


def test_em_details_zero_maxiter_reports_the_start():
    counts = counts_from(seeded_chain((2, 2, 2), 3), 100, 5)
    fit = em_fit_details(counts, Shape(2, 2, 2), maxiter=0)
    assert fit.iterations == 0 and not fit.converged
    assert fit.loglik == pytest.approx(loglik(counts, fit.params), abs=1e-9)


def test_em_gives_up_after_16_zero_responsibility_restarts(monkeypatch):
    class NoMassOnFirstRow:
        def dirichlet(self, alpha, size=None):
            row = np.full(len(alpha), 1.0 / len(alpha))
            if size is not None:
                return np.tile(row, (size, 1))
            row[0], row[1] = 0.0, 2.0 * row[1]
            return row

    seeds = []

    def default_rng(seed):
        seeds.append(seed)
        return NoMassOnFirstRow()

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    counts = CountTable((3, 3), np.full((3, 3), 2))
    with pytest.raises(GeometryError, match="restarted 16 times"):
        em_fit_details(counts, Shape(3, 2, 3), seed=5)
    assert seeds == list(range(5, 21))


# ---------------------------------------------------------------- profiles

def test_profile_identity_is_constant():
    params = seeded_chain((3, 2, 3), 31)
    counts = counts_from(params, 800, 31)
    trace = profile_along_fiber(counts, params, MixingMatrix.identity(2), 2)
    assert trace.t.size == 2
    assert trace.loglik[0] == trace.loglik[1]


def test_profile_to_extreme_vertex_is_flat_ridge():
    for seed in range(10):
        params = seeded_chain((3, 2, 3), 700 + seed)
        counts = counts_from(params, 1_000, seed)
        vertex = extreme_mixings(params)[0]
        trace = profile_along_fiber(counts, params, vertex.q, 21)
        assert trace.range < 1e-10
        assert trace.min_entry[-1] == 0.0
        assert abs(trace.loglik[-1] - trace.loglik[0]) < 1e-10


def test_profile_path_exit_reports_prefix_and_t():
    params = seeded_chain((3, 2, 3), 41)
    counts = counts_from(params, 500, 41)
    bounds = rho_pi_bounds(params)
    bad = MixingMatrix.from_pi_rho(bounds.pi_min - 0.2, bounds.rho_max)
    with pytest.raises(PathExitsPolytope) as err:
        profile_along_fiber(counts, params, bad, 20)
    exc = err.value
    assert 0.0 < exc.exit_t < 1.0
    assert 1 <= len(exc.prefix) < 20
    assert exc.prefix[-1][0] <= exc.exit_t
    # the exit point is the last valid parameter on the segment
    from latentgeom import apply_mixing
    r2 = params.shape.r2
    q_ok = MixingMatrix((1 - exc.exit_t) * np.eye(r2) + exc.exit_t * bad.q)
    apply_mixing(params, q_ok)


def test_profile_requires_finite_start():
    params = ChainParams(Shape(2, 2, 2), [1.0, 0.0],
                         [[0.5, 0.5], [0.5, 0.5]],
                         [[0.5, 0.5], [0.5, 0.5]])
    counts = np.zeros((2, 2), dtype=int)
    counts[1, 1] = 3
    with pytest.raises(InvalidParameter):
        profile_along_fiber(CountTable((2, 2), counts), params,
                            MixingMatrix.identity(2), 5)


# ---------------------------------------------------------------- aliasing

def test_permute_latent_involution_exact():
    params = seeded_chain((3, 2, 3), 51)
    twice = permute_latent(permute_latent(params))
    assert np.array_equal(twice.a, params.a)
    assert np.array_equal(twice.b, params.b)


def test_permute_latent_loglik_bit_identical():
    for seed in range(10):
        params = seeded_chain((3, 2, 3), 900 + seed)
        counts = counts_from(params, 700, seed)
        assert loglik(counts, permute_latent(params)) == loglik(counts, params)


def test_permute_latent_general_r2_needs_perm():
    params = seeded_chain((3, 3, 3), 1)
    with pytest.raises(InvalidParameter):
        permute_latent(params)
    moved = permute_latent(params, perm=(2, 0, 1))
    back = permute_latent(moved, perm=(1, 2, 0))
    assert np.array_equal(back.a, params.a)


@pytest.mark.parametrize("perm", [(1.7, 0.2), (True, False), "10", (1.0, 0),
                                  5, 2.0])
def test_permute_latent_perm_entries_are_integers(perm):
    # not read by int(): each of the first four would swap the two labels;
    # the last two are no sequence of labels at all
    params = seeded_chain((3, 2, 3), 51)
    with pytest.raises(InvalidParameter, match="is not a permutation"):
        permute_latent(params, perm)
    swapped = permute_latent(params, np.array([1, 0]))
    assert np.array_equal(swapped.a, permute_latent(params).a)


def test_fiber_solution_pair_maps_under_label_swap():
    # the label swap sends solutions at (z, c1, c2) to solutions at
    # (z, 1-c1, 1-c2), coordinatewise 1 - x
    from latentgeom import binary_fiber_solve
    base = binary_fiber_solve(1.25, 0.3, 0.6)
    swapped = binary_fiber_solve(1.25, 0.7, 0.4)
    images = sorted((1.0 - x, 1.0 - y) for x, y in base.points)
    got = sorted(swapped.points)
    for (gx, gy), (ix, iy) in zip(got, images):
        assert gx == pytest.approx(ix, abs=1e-12)
        assert gy == pytest.approx(iy, abs=1e-12)


# ---------------------------------------------------------------- integer arguments

@pytest.mark.parametrize("call,kwargs,message", [
    ("sample_fiber", {"n": 2.5}, "n must be an integer, got 2.5"),
    ("sample_fiber", {"n": "3"}, "n must be an integer, got '3'"),
    ("sample_fiber", {"seed": -1}, "seed must be >= 0, got -1"),
    ("sample_fiber", {"seed": 1.0}, "seed must be an integer, got 1.0"),
    ("em_fit_details", {"maxiter": 2.5}, "maxiter must be an integer, got 2.5"),
    ("em_fit_details", {"seed": -3}, "seed must be >= 0, got -3"),
    ("consistency_check", {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ("consistency_check", {"seed": -1}, "seed must be >= 0, got -1"),
    ("consistency_check", {"restarts": 4.0}, "restarts must be an integer, got 4.0"),
    ("consistency_check", {"maxiter": 10.0}, "maxiter must be an integer, got 10.0"),
    ("consistency_check", {"r2": 2.5}, "r2 must be an integer, got 2.5"),
    ("profile_along_fiber", {"steps": 3.0}, "steps must be an integer, got 3.0"),
    # bool is an int subclass but never a count: True is not 1 point
    ("sample_fiber", {"n": True}, "n must be an integer, got True"),
    ("sample_fiber", {"seed": False}, "seed must be an integer, got False"),
    ("em_fit_details", {"maxiter": True}, "maxiter must be an integer, got True"),
    ("consistency_check", {"restarts": True},
     "restarts must be an integer, got True"),
    ("profile_along_fiber", {"steps": True}, "steps must be an integer, got True"),
])
def test_non_integer_or_negative_counts_and_seeds_are_invalid(call, kwargs, message):
    params = seeded_chain((3, 2, 3), 7)
    counts = counts_from(params, 200, 7)
    calls = {
        "sample_fiber": lambda n=2, seed=0: sample_fiber(params, n, seed=seed),
        "em_fit_details": lambda **kw: em_fit_details(counts, params.shape, **kw),
        "consistency_check": lambda r2=3, **kw: consistency_check(
            seeded_marginal((4, 4), 7), r2, **kw),
        "profile_along_fiber": lambda steps: profile_along_fiber(
            counts, params, MixingMatrix.identity(2), steps),
    }
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        calls[call](**kwargs)


@pytest.mark.parametrize("tol, shown", [
    (True, "True"), (False, "False"), ("x", "'x'"), ("1e-8", "'1e-8'"),
    (None, "None"), (1j, "1j"), (np.float64("nan"), "nan"),
    (math.inf, "inf"), (np.float64(-1.0), "-1.0"), (0, "0.0"),
    (10 ** 400, repr(10 ** 400)),
])
@pytest.mark.parametrize("call", ["em_fit_details", "consistency_check"])
def test_tol_must_be_a_finite_positive_real(call, tol, shown):
    # one rule for tol: a bool or a non-real is refused like a non-finite
    # or nonpositive real, and a real shows as a plain float
    params = seeded_chain((3, 2, 3), 7)
    counts = counts_from(params, 200, 7)
    message = f"tol must be a positive real, got {shown}"
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        if call == "em_fit_details":
            em_fit_details(counts, params.shape, tol=tol)
        else:
            consistency_check(seeded_marginal((4, 4), 7), 3, tol=tol)


@pytest.mark.parametrize("tol", [1, np.float32(1e-3), np.int64(1)])
def test_tol_takes_numpy_and_integer_reals(tol):
    params = seeded_chain((3, 2, 3), 7)
    counts = counts_from(params, 200, 7)
    fit = em_fit_details(counts, params.shape, maxiter=5, tol=tol)
    assert fit.iterations <= 5
    report = consistency_check(seeded_marginal((4, 4), 7), 3, tol=tol,
                               restarts=2, maxiter=5)
    assert report.tol == tol
