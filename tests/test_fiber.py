import numpy as np
import pytest

from latentgeom import (
    BoundaryPoint,
    ChainParams,
    DegenerateInput,
    InvalidMixing,
    InvalidParameter,
    MixingMatrix,
    RejectionStall,
    Shape,
    SingularMixing,
    apply_mixing,
    extreme_mixings,
    fiber_dimension,
    joint_from_chain,
    marginal_13,
    rho_pi_bounds,
    sample_fiber,
)
from conftest import seeded_chain


def marginal_of(params):
    return marginal_13(joint_from_chain(params)).cells


# ---------------------------------------------------------------- mixing action

def test_mixing_matrix_invariants():
    with pytest.raises(InvalidParameter):
        MixingMatrix([[0.5, 0.4], [0.2, 0.8]])  # rows must sum to 1
    with pytest.raises(SingularMixing):
        MixingMatrix([[0.5, 0.5], [0.5, 0.5]])
    q = MixingMatrix.from_pi_rho(0.8, 0.1)
    assert q.det == pytest.approx(0.7)


def test_identity_mixing_is_noop():
    params = seeded_chain((3, 2, 3), 0)
    moved = apply_mixing(params, MixingMatrix.identity(2))
    assert np.abs(moved.a - params.a).max() < 1e-15
    assert np.abs(moved.b - params.b).max() < 1e-15
    assert np.array_equal(moved.p1, params.p1)


def test_bound_extremes_give_exact_zeros_per_column():
    params = seeded_chain((3, 2, 3), 5)
    bounds = rho_pi_bounds(params)
    q = MixingMatrix.from_pi_rho(bounds.pi_min, bounds.rho_max)
    moved = apply_mixing(params, q)
    assert moved.a[bounds.i_min, 0] == 0.0
    assert moved.a[bounds.i_max, 1] == 0.0
    assert np.abs(marginal_of(moved) - marginal_of(params)).max() < 1e-12


def test_hundred_seeded_mixings_preserve_marginal():
    params = seeded_chain((3, 2, 3), 6)
    base = marginal_of(params)
    points = sample_fiber(params, 100, seed=60)
    assert len(points) == 100
    for moved in points:
        assert np.abs(marginal_of(moved) - base).max() < 1e-12


def test_invalid_mixing_reports_entry():
    params = seeded_chain((3, 2, 3), 7)
    bounds = rho_pi_bounds(params)
    with pytest.raises(InvalidMixing) as err:
        apply_mixing(params, MixingMatrix.from_pi_rho(bounds.pi_min - 0.05,
                                                      bounds.rho_max))
    assert err.value.matrix == "a"
    assert err.value.value < -1e-12


def test_group_composition():
    for seed in range(20):
        params = seeded_chain((3, 2, 3), 500 + seed)
        bounds = rho_pi_bounds(params)
        q1 = MixingMatrix.from_pi_rho(0.5 * (bounds.pi_min + 1.0),
                                      0.5 * bounds.rho_max)
        moved = apply_mixing(params, q1)
        inner = rho_pi_bounds(moved)
        q2 = MixingMatrix.from_pi_rho(0.5 * (inner.pi_min + 1.0),
                                      0.5 * inner.rho_max)
        left = apply_mixing(moved, q2)
        right = apply_mixing(params, MixingMatrix(q2.q @ q1.q))
        assert np.abs(left.a - right.a).max() < 1e-12
        assert np.abs(left.b - right.b).max() < 1e-12


# ---------------------------------------------------------------- bounds

def test_rho_pi_bounds_golden():
    params = ChainParams(
        Shape(3, 2, 3),
        [0.3, 0.3, 0.4],
        [[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]],
        [[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]],
    )
    bounds = rho_pi_bounds(params)
    assert bounds.rho_max == 0.2 and bounds.i_min == 0
    assert bounds.pi_min == 0.7 and bounds.i_max == 2


def test_rho_pi_bounds_constant_column_pinches():
    params = ChainParams(
        Shape(2, 2, 2), [0.5, 0.5],
        [[0.4, 0.6], [0.4, 0.6]],
        [[0.3, 0.7], [0.8, 0.2]],
    )
    bounds = rho_pi_bounds(params)
    assert bounds.rho_max == bounds.pi_min == 0.4


def test_rho_pi_boundary_closure():
    # every corner of [pi_min, 1] x [0, rho_max] applies without error
    params = seeded_chain((4, 2, 4), 9)
    bounds = rho_pi_bounds(params)
    for pi in (bounds.pi_min, 1.0):
        for rho in (0.0, bounds.rho_max):
            moved = apply_mixing(params, MixingMatrix.from_pi_rho(pi, rho))
            assert moved.min_entry >= 0.0


def test_rho_pi_bounds_requires_r2_2():
    with pytest.raises(InvalidParameter):
        rho_pi_bounds(seeded_chain((3, 3, 3), 1))


# ---------------------------------------------------------------- extreme vertices

def test_extreme_mixings_zero_pattern_and_marginal():
    for seed in range(10):
        params = seeded_chain((3, 2, 3), 100 + seed)
        base = marginal_of(params)
        vertices = extreme_mixings(params)
        assert [v.branch for v in vertices] == ["main", "mirrored"]
        for vertex in vertices:
            moved = apply_mixing(params, vertex.q)
            for mat, row, col in vertex.zeros:
                assert mat == "a"
                assert moved.a[row, col] == 0.0
            # an exact zero lands in each column of p(Y2'|Y1)
            assert (moved.a[:, 0] == 0.0).any()
            assert (moved.a[:, 1] == 0.0).any()
            assert np.abs(marginal_of(moved) - base).max() < 1e-12


def test_extreme_mixings_b_side():
    for seed in range(10):
        params = seeded_chain((3, 2, 3), 200 + seed)
        base = marginal_of(params)
        for vertex in extreme_mixings(params, side="b"):
            moved = apply_mixing(params, vertex.q)
            for mat, row, col in vertex.zeros:
                assert mat == "b"
                assert abs(moved.b[row, col]) < 1e-13
            assert np.abs(marginal_of(moved) - base).max() < 1e-12


def b_side_interval_loop(b):
    """The index loop that computed the b-side bounds, kept as reference."""
    b0, b1 = b[0], b[1]
    hi_candidates = [(b1[k] / (b1[k] - b0[k]), k)
                     for k in range(b.shape[1]) if b0[k] < b1[k]]
    lo_candidates = [(b1[k] / (b1[k] - b0[k]), k)
                     for k in range(b.shape[1]) if b0[k] > b1[k]]
    if not hi_candidates or not lo_candidates:
        raise DegenerateInput("rows do not straddle")
    u_hi, k_hi = min(hi_candidates)
    u_lo, k_lo = max(lo_candidates)
    return u_lo, k_lo, u_hi, k_hi


def test_b_side_interval_equals_loop():
    from latentgeom.fiber import _b_side_interval
    rng = np.random.default_rng(17)
    cases = [seeded_chain((3, 2, r3), 600 + r3).b for r3 in range(2, 9)]
    # ties: equal bounds at several columns on both sides
    cases += [np.array([[0.1, 0.4, 0.1, 0.4], [0.4, 0.1, 0.4, 0.1]]),
              np.array([[0.2, 0.2, 0.3, 0.3], [0.3, 0.3, 0.2, 0.2]])]
    cases += [rng.dirichlet(np.ones(r3), size=2) for r3 in (2, 3, 5, 9)
              for _ in range(50)]
    for b in cases:
        got = _b_side_interval(b)
        want = b_side_interval_loop(b)
        assert got == want
        assert all(np.array(x).tobytes() == np.array(y).tobytes()
                   for x, y in zip(got, want))
    for b in (np.array([[0.3, 0.7], [0.3, 0.7]]),
              np.array([[0.2, 0.3, 0.5], [0.3, 0.3, 0.4]])[[0, 0]]):
        with pytest.raises(DegenerateInput):
            _b_side_interval(b)


def test_extreme_mixings_degenerate_inputs():
    boundary = ChainParams(
        Shape(2, 2, 2), [0.5, 0.5],
        [[0.0, 1.0], [0.6, 0.4]],
        [[0.3, 0.7], [0.8, 0.2]],
    )
    with pytest.raises(DegenerateInput):
        extreme_mixings(boundary)
    pinched = ChainParams(
        Shape(2, 2, 2), [0.5, 0.5],
        [[0.4, 0.6], [0.4, 0.6]],
        [[0.3, 0.7], [0.8, 0.2]],
    )
    with pytest.raises(DegenerateInput):
        extreme_mixings(pinched)


# ---------------------------------------------------------------- sampling

def test_sample_fiber_zero_points():
    assert sample_fiber(seeded_chain((2, 2, 2), 3), 0) == []


def test_sample_fiber_distinct_points_same_marginal():
    params = seeded_chain((2, 2, 2), 4)
    base = marginal_of(params)
    points = sample_fiber(params, 50, seed=123)
    assert len(points) == 50
    for moved in points:
        assert np.abs(marginal_of(moved) - base).max() < 1e-12
    for i, x in enumerate(points):
        for y in points[i + 1:]:
            dist = max(np.abs(x.a - y.a).max(), np.abs(x.b - y.b).max())
            assert dist > 1e-6


def test_sample_fiber_deterministic():
    params = seeded_chain((3, 2, 3), 5)
    one = sample_fiber(params, 10, seed=77)
    two = sample_fiber(params, 10, seed=77)
    for x, y in zip(one, two):
        assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)


def test_sample_fiber_stall_warns_and_returns_partial(monkeypatch):
    # the adaptive step keeps interior models from stalling, so force
    # rejection to exercise the reporting path: with CLAMP_EPS = -1 the
    # clamp test rejects any a' with an entry below 1
    import latentgeom.fiber as fiber_mod

    monkeypatch.setattr(fiber_mod, "CLAMP_EPS", -1.0)
    params = seeded_chain((2, 2, 2), 10)
    with pytest.warns(RejectionStall) as record:
        points = fiber_mod.sample_fiber(params, 5, seed=1)
    assert points == []
    # every attempt up to the cap of max(200, 100 n) was made
    assert "accepted 0/5 fiber points in 500 attempts" in str(record[0].message)


# ---------------------------------------------------------------- orbit rank

@pytest.mark.parametrize("shape,expected", [
    ((3, 2, 3), 2), ((4, 2, 4), 2), ((4, 3, 4), 6), ((5, 3, 5), 6),
    ((2, 2, 2), 2),
])
def test_fiber_dimension(shape, expected):
    for seed in range(5):
        params = seeded_chain(shape, 300 + seed)
        assert fiber_dimension(params) == expected


def test_fiber_dimension_case_one_matches_t_minus_m():
    # r2 >= max(r1, r3): the orbit realises the full fiber dimension t - m
    from latentgeom import dims
    for seed in range(5):
        params = seeded_chain((2, 3, 2), 400 + seed)
        assert fiber_dimension(params) == dims(params.shape).fiber


@pytest.mark.parametrize("shape,orbit", [
    ((6, 4, 3), 12), ((3, 4, 6), 12), ((5, 3, 2), 6), ((8, 5, 4), 20),
    ((3, 5, 3), 16),
])
def test_orbit_rank_falls_short_of_fiber_between_r1_and_r3(shape, orbit):
    # the orbit fills the fiber unless min(r1, r3) < r2 < max(r1, r3); there
    # it is smaller by (max(r1, r3) - r2)(r2 - min(r1, r3)): 14, 14, 8 and
    # 23 against the orbit's 12, 12, 6 and 20.  At 3x5x3 the two agree
    from latentgeom import dims
    r1, r2, r3 = shape
    gap = max(0, max(r1, r3) - r2) * max(0, r2 - min(r1, r3))
    for seed in range(5):
        params = seeded_chain(shape, 500 + seed)
        assert fiber_dimension(params) == orbit == dims(params.shape).fiber - gap


@pytest.mark.parametrize("shape", [(3, 2, 3), (4, 3, 4), (2, 4, 3),
                                   (6, 5, 7)])
def test_fiber_dimension_rows_equal_loop_reference(monkeypatch, shape):
    from latentgeom import fiber

    def loop_rows(params):
        r2 = params.shape.r2
        rows = []
        for j in range(r2):
            for l in range(r2 - 1):
                m = np.zeros((r2, r2))
                m[j, l], m[j, r2 - 1] = 1.0, -1.0
                rows.append(np.concatenate([(-params.a @ m).ravel(),
                                            (m @ params.b).ravel()]))
        return np.vstack(rows)

    seen = []
    real = fiber._numerical_rank
    monkeypatch.setattr(fiber, "_numerical_rank",
                        lambda rows: seen.append(rows) or real(rows))
    for seed in range(3):
        params = seeded_chain(shape, 450 + seed)
        rank = fiber_dimension(params)
        assert np.array_equal(seen[-1], loop_rows(params))
        assert rank == real(loop_rows(params))


def test_fiber_dimension_boundary_and_one_sided():
    interior_b = [[0.3, 0.7], [0.8, 0.2]]
    one_sided = ChainParams(
        Shape(2, 2, 2), [0.5, 0.5], [[0.0, 1.0], [0.6, 0.4]], interior_b)
    with pytest.warns(UserWarning):
        fiber_dimension(one_sided)
    both_sided = ChainParams(
        Shape(2, 2, 2), [0.5, 0.5], [[0.0, 1.0], [0.6, 0.4]],
        [[0.0, 1.0], [0.8, 0.2]])
    with pytest.raises(BoundaryPoint):
        fiber_dimension(both_sided)
