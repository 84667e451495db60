"""Invariants checked as properties over generated inputs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from latentgeom import (  # noqa: E402
    BoundaryPoint,
    InvalidMixing,
    MixingMatrix,
    Shape,
    apply_mixing,
    consistency_check,
    dims,
    extreme_mixings,
    jacobian_rank,
    joint_from_chain,
    marginal_13,
    merge,
    permute_latent,
    random_chain,
    rho_pi_bounds,
    split,
)
from latentgeom.fiber import _b_side_interval  # noqa: E402
from latentgeom.model import INTERIOR_EPS  # noqa: E402
from conftest import pushed_chain, seeded_chain, seeded_joint  # noqa: E402

SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=60, deadline=None)
@given(r1=st.integers(2, 5), r2=st.integers(2, 3), r3=st.integers(2, 5),
       seed=SEEDS)
def test_jacobian_rank_is_model_dimension(r1, r2, r3, seed):
    params = seeded_chain((r1, r2, r3), seed)
    assert jacobian_rank(params) == dims(Shape(r1, r2, r3)).t


@settings(max_examples=150, deadline=None)
@given(r1=st.integers(2, 8), r2=st.integers(2, 8), r3=st.integers(2, 8),
       seed=SEEDS, block=st.sampled_from(["p1", "a", "b"]), row=st.integers(0, 7),
       eps=st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 2e-9,
                            1.1e-9, 1e-9, 1e-12]))
def test_jacobian_rank_is_t_wherever_the_guard_accepts(r1, r2, r3, seed, block,
                                                       row, eps):
    # one row of p1, a or b pushed towards the boundary
    params = pushed_chain((r1, r2, r3), seed, block, eps,
                          row=row % (r1 if block == "a" else r2))
    if eps <= INTERIOR_EPS:
        with pytest.raises(BoundaryPoint):
            jacobian_rank(params)
    else:
        assert jacobian_rank(params) == dims(Shape(r1, r2, r3)).t


@settings(max_examples=60, deadline=None)
@given(r1=st.integers(2, 8), r3=st.integers(2, 8), seed=SEEDS)
def test_two_state_chain_marginals_are_exact(r1, r3, seed):
    params = seeded_chain((r1, 2, r3), seed)
    report = consistency_check(marginal_13(joint_from_chain(params)), r2=2)
    assert report.feasible
    assert report.best_divergence <= 1e-14
    if r3 > 2:
        # not the copy of Y3: the witness vertices are the two extreme
        # conditional rows, the b rows of the side-"a" fiber vertex
        vertex = apply_mixing(params, extreme_mixings(params)[0].q).b
        b = report.witness.b
        assert min(np.abs(b - vertex).max(),
                   np.abs(b - vertex[::-1]).max()) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(r1=st.integers(2, 6), r2=st.integers(2, 4), r3=st.integers(2, 6),
       seed=SEEDS)
def test_split_merge_round_trip(r1, r2, r3, seed):
    joint = seeded_joint((r1, r2, r3), seed)
    back = merge(*split(joint))
    assert np.abs(back.cells - joint.cells).max() <= 1e-15


@settings(max_examples=60, deadline=None)
@given(r2=st.integers(2, 5), seed=SEEDS, data=st.data())
def test_permute_latent_twice_is_the_identity(r2, seed, data):
    params = seeded_chain((3, r2, 4), seed)
    perm = data.draw(st.permutations(range(r2)))
    inverse = np.argsort(perm)
    back = permute_latent(permute_latent(params, perm), inverse)
    assert np.array_equal(back.a, params.a) and np.array_equal(back.b, params.b)
    if r2 == 2:
        twice = permute_latent(permute_latent(params))
        assert np.array_equal(twice.a, params.a)
        assert np.array_equal(twice.b, params.b)


def _interior_mixing(params, rng):
    """q = I + s M with |s M| <= 0.3 min_entry in the max-row-sum norm,
    which keeps a q^{-1} and q b nonnegative."""
    r2 = params.shape.r2
    m = rng.standard_normal((r2, r2))
    m -= m.mean(axis=1, keepdims=True)
    scale = 0.3 * params.min_entry / np.abs(m).sum(axis=1).max()
    return MixingMatrix(np.eye(r2) + scale * m)


@settings(max_examples=60, deadline=None)
@given(r1=st.integers(2, 6), r2=st.integers(2, 4), r3=st.integers(2, 6),
       seed=SEEDS)
def test_mixing_composition(r1, r2, r3, seed):
    rng = np.random.default_rng(seed)
    params = seeded_chain((r1, r2, r3), seed)
    q1 = _interior_mixing(params, rng)
    moved = apply_mixing(params, q1)
    q2 = _interior_mixing(moved, rng)
    twice = apply_mixing(moved, q2)
    once = apply_mixing(params, MixingMatrix(q2.q @ q1.q))
    assert np.abs(twice.a - once.a).max() <= 1e-12
    assert np.abs(twice.b - once.b).max() <= 1e-12
    base = marginal_13(joint_from_chain(params)).cells
    for p in (moved, twice, once):
        assert np.abs(marginal_13(joint_from_chain(p)).cells - base).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(r1=st.integers(2, 6), r3=st.integers(2, 6), seed=SEEDS)
def test_r2_2_validity_rectangle(r1, r3, seed):
    # on the branch pi > rho the action is valid exactly on the rectangle
    # [pi_min, u_hi] x [u_lo, rho_max]: the a side bounds pi from below and
    # rho from above, the b side bounds both to [u_lo, u_hi]
    params = random_chain(Shape(r1, 2, r3), np.random.default_rng(seed),
                          min_entry=0.05)
    bounds = rho_pi_bounds(params)
    u_lo, _, u_hi, _ = _b_side_interval(params.b)
    # far corners cancel to rounding of size u * 1e-16
    assume(bounds.pi_min > bounds.rho_max and u_hi - u_lo < 1e3)
    for pi in (bounds.pi_min, u_hi):
        for rho in (u_lo, bounds.rho_max):
            moved = apply_mixing(params, MixingMatrix.from_pi_rho(pi, rho))
            assert moved.min_entry >= 0.0
    # a step past each edge from its midpoint, sized to leave a negative
    # entry far beyond CLAMP_EPS
    step = 1e-6 * (1.0 + u_hi - u_lo)
    pi_mid = 0.5 * (bounds.pi_min + u_hi)
    rho_mid = 0.5 * (u_lo + bounds.rho_max)
    for pi, rho in ((bounds.pi_min - step, rho_mid), (u_hi + step, rho_mid),
                    (pi_mid, u_lo - step), (pi_mid, bounds.rho_max + step)):
        with pytest.raises(InvalidMixing):
            apply_mixing(params, MixingMatrix.from_pi_rho(pi, rho))
