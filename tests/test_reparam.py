import numpy as np
import pytest

from latentgeom import (
    ConstraintViolation,
    CrossRatios,
    InvalidParameter,
    LambdaField,
    MarginalTable,
    NoRealSolution,
    OffVariety,
    OutOfUnitBox,
    Shape,
    ShapeMismatch,
    SingularDenominator,
    SingularPair,
    ZeroCell,
    binary_fiber_solve,
    binary_surface,
    cross_ratios,
    degenerate_family_323,
    joint_from_chain,
    marginal_13,
    marginal_identity_323,
    merge,
    quadric_residuals_323,
    solve_fiber_323,
    split,
)
from conftest import seeded_chain, seeded_joint, seeded_marginal


def binary_system_residuals(l11, l21, l12, l22, z):
    """The two binary quadrics in lambda coordinates (hyperplane + quadric)."""
    return (abs(z * (1 - l11 - l22) - (1 - l12 - l21)),
            abs(z * l11 * l22 - l12 * l21))


# ---------------------------------------------------------------- split/merge

def test_split_uniform():
    sh = Shape(2, 2, 2)
    from latentgeom import JointTable
    marg, lam = split(JointTable(sh, np.full((2, 2, 2), 0.125)))
    assert np.array_equal(marg.cells, np.full((2, 2), 0.25))
    assert np.array_equal(lam.values, np.full((2, 2, 2), 0.5))
    assert not lam.unconstrained.any()


def test_split_bayes_oracle():
    params = seeded_chain((3, 2, 3), 21)
    _, lam = split(joint_from_chain(params))
    expected = np.einsum("ij,jk->ikj", params.a, params.b)
    expected /= expected.sum(axis=2, keepdims=True)
    assert np.abs(lam.values - expected).max() < 1e-12


def test_split_merge_round_trip_100_tables():
    for seed in range(100):
        joint = seeded_joint((3, 2, 3), 3000 + seed)
        marg, lam = split(joint)
        back = merge(marg, lam)
        assert np.abs(back.cells - joint.cells).max() < 1e-14


def test_split_flags_zero_marginal_cells():
    sh = Shape(2, 2, 2)
    from latentgeom import JointTable
    cells = np.full((2, 2, 2), 0.125)
    cells[0, :, 0] = 0.0
    cells[1, :, 1] = 0.25
    joint = JointTable(sh, cells)
    marg, lam = split(joint)
    assert marg.cells[0, 0] == 0.0
    assert lam.unconstrained[0, 0]
    assert np.array_equal(lam.values[0, 0], [0.5, 0.5])
    back = merge(marg, lam)
    assert np.abs(back.cells - joint.cells).max() < 1e-15


def test_merge_zero_marginal_propagates():
    sh = Shape(2, 2, 2)
    cells = np.array([[0.0, 0.5], [0.25, 0.25]])
    marg = MarginalTable((2, 2), cells)
    lam = LambdaField(sh, np.full((2, 2, 2), 0.5))
    joint = merge(marg, lam)
    assert np.array_equal(joint.cells[0, :, 0], [0.0, 0.0])


def test_merge_shape_mismatch():
    lam = LambdaField(Shape(2, 2, 2), np.full((2, 2, 2), 0.5))
    marg = MarginalTable((2, 3), np.full((2, 3), 1 / 6))
    with pytest.raises(ShapeMismatch):
        merge(marg, lam)


# ---------------------------------------------------------------- cross-ratios

def test_cross_ratios_independence_is_one():
    row = np.array([0.2, 0.3, 0.5])
    col = np.array([0.1, 0.4, 0.5])
    marg = MarginalTable((3, 3), np.outer(row, col))
    z = cross_ratios(marg)
    assert np.abs(z.values - 1.0).max() < 1e-14


def loop_cross_ratios(marg, ref_cell):
    # reference: one ratio at a time, rows and columns ascending
    r1, r3 = marg.shape
    ref_i, ref_k = ref_cell
    d = marg.cells
    return np.array([[d[ref_i, ref_k] * d[i, k] / (d[ref_i, k] * d[i, ref_k])
                      for k in range(r3) if k != ref_k]
                     for i in range(r1) if i != ref_i])


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 5), (4, 3), (6, 6)])
def test_cross_ratios_equal_loop_reference(shape):
    marg = seeded_marginal(shape, 3)
    for ref_i in range(shape[0]):
        for ref_k in range(shape[1]):
            got = cross_ratios(marg, (ref_i, ref_k)).values
            assert np.array_equal(got, loop_cross_ratios(marg, (ref_i, ref_k)))


def test_cross_ratio_hand_value():
    marg = MarginalTable((2, 2), [[0.4, 0.1], [0.1, 0.4]])
    z = cross_ratios(marg)
    assert z.values[0, 0] == pytest.approx(16.0, abs=1e-12)


def test_cross_ratios_zero_cell():
    marg = MarginalTable((2, 2), [[0.5, 0.0], [0.2, 0.3]])
    with pytest.raises(ZeroCell) as err:
        cross_ratios(marg)
    assert err.value.cell == (0, 1)


def test_named_cross_ratios_require_3x3():
    marg = MarginalTable((2, 2), [[0.4, 0.1], [0.1, 0.4]])
    with pytest.raises(InvalidParameter):
        cross_ratios(marg).z1


# ---------------------------------------------------------------- binary solve

def test_binary_fiber_solve_reference_point():
    sol = binary_fiber_solve(1.25, 0.3, 0.6)
    assert len(sol.points) == 2
    (a1, a2), (b1, b2) = sol.points
    assert a1 == pytest.approx(0.20, abs=1e-12)
    assert a2 == pytest.approx(0.72, abs=1e-12)
    assert b1 == pytest.approx(0.72, abs=1e-12)
    assert b2 == pytest.approx(0.20, abs=1e-12)


def test_binary_fiber_solve_independence():
    sol = binary_fiber_solve(1.0, 0.3, 0.6)
    assert sol.points[0] == pytest.approx((0.3, 0.6), abs=1e-15)
    assert sol.points[1] == pytest.approx((0.6, 0.3), abs=1e-15)


def test_binary_fiber_solve_negative_discriminant():
    # (1 - (1-c1-c2)/z)^2 - 4 c1 c2 / z = 0.765625 - 0.9 < 0
    with pytest.raises(NoRealSolution):
        binary_fiber_solve(0.8, 0.3, 0.6)


def test_binary_fiber_solutions_are_coordinate_swaps():
    rng = np.random.default_rng(17)
    found = 0
    while found < 200:
        c1, c2 = rng.uniform(0.05, 0.95, 2)
        z = float(np.exp(rng.uniform(-1.5, 1.5)))
        try:
            sol = binary_fiber_solve(z, c1, c2)
        except (NoRealSolution, OutOfUnitBox):
            continue
        found += 1
        for lam11, lam22 in sol.points:
            r7, r8 = binary_system_residuals(lam11, c1, c2, lam22, z)
            assert r7 < 1e-10 and r8 < 1e-10
        if len(sol.points) == 2:
            assert sol.points[0] == sol.points[1][::-1]
            assert sol.points[0][0] <= sol.points[1][0]


# ---------------------------------------------------------------- surfaces

def admissible_z(l12, l22, rng):
    lo, hi = sorted((l12 / l22, (1 - l12) / (1 - l22)))
    if hi - lo < 1e-6:
        return None
    return float(rng.uniform(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)))


def test_binary_surface_residual_oracle_1000():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        l12, l22 = rng.uniform(0.02, 0.98, 2)
        if abs(l22 - l12) < 1e-3 or l22 in (0.0, 1.0):
            continue
        z = admissible_z(l12, l22, rng)
        if z is None or z <= 0:
            continue
        l21, l11 = binary_surface(l12, l22, z)
        assert 0.0 <= l21 <= 1.0 and 0.0 <= l11 <= 1.0
        r7, r8 = binary_system_residuals(l11, l21, l12, l22, z)
        assert r7 < 1e-10 and r8 < 1e-10
        checked += 1


def test_binary_surface_z_one_degenerate_branch():
    l21, l11 = binary_surface(0.3, 0.7, 1.0)
    assert (l21, l11) == (0.7, 0.3)
    r7, r8 = binary_system_residuals(l11, l21, 0.3, 0.7, 1.0)
    assert r7 == 0.0 and r8 == 0.0


def test_binary_surface_singular_pair():
    with pytest.raises(SingularPair):
        binary_surface(0.4, 0.4, 1.3)


def test_binary_surface_constraint_violation_names_inequality():
    # l22 > l12 needs z > l12/l22; here z is below the window
    with pytest.raises(ConstraintViolation) as err:
        binary_surface(0.6, 0.8, 0.5)
    assert "lam12/lam22" in str(err.value)
    with pytest.raises(ConstraintViolation):
        binary_surface(0.2, 0.8, 5.0)


# ---------------------------------------------------------------- identity

def test_identity_residual_zero_at_independence():
    row = np.array([0.2, 0.3, 0.5])
    col = np.array([0.25, 0.35, 0.4])
    z = cross_ratios(MarginalTable((3, 3), np.outer(row, col)))
    assert abs(marginal_identity_323(z)) < 1e-13


def test_identity_on_1000_chain_models():
    worst = 0.0
    for seed in range(1000):
        params = seeded_chain((3, 2, 3), 1000 + seed)
        z = cross_ratios(marginal_13(joint_from_chain(params)))
        worst = max(worst, abs(marginal_identity_323(z)))
    assert worst < 1e-10


def test_identity_fails_off_variety_frozen_seed():
    # simplex-flat 3x3 table, seed recorded with its observed residual
    rng = np.random.default_rng(20260809)
    marg = MarginalTable((3, 3), rng.dirichlet(np.ones(9)).reshape(3, 3))
    res = marginal_identity_323(cross_ratios(marg))
    assert res == pytest.approx(-1.691935448354113, rel=1e-12)
    assert abs(res) > 1e-3


def test_identity_abs_value_invariant_under_ref_fixing_relabels():
    params = seeded_chain((3, 2, 3), 77)
    marg = marginal_13(joint_from_chain(params))
    joint = seeded_joint((3, 2, 3), 78)  # off-variety: nonzero residual
    generic = marginal_13(joint)
    for table in (marg, generic):
        base = abs(marginal_identity_323(cross_ratios(table)))
        for rows in ([0, 1, 2], [0, 2, 1]):
            for cols in ([0, 1, 2], [0, 2, 1]):
                cells = table.cells[np.ix_(rows, cols)]
                relabeled = MarginalTable((3, 3), cells)
                got = abs(marginal_identity_323(cross_ratios(relabeled)))
                assert got == pytest.approx(base, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------- 3x2x3 solver

def test_solve_fiber_323_round_trip():
    for seed in range(25):
        params = seeded_chain((3, 2, 3), 500 + seed)
        marg, lam = split(joint_from_chain(params))
        z = cross_ratios(marg)
        true = lam.values[:, :, 0]
        got = solve_fiber_323(z, float(true[1, 0]), float(true[1, 1]))
        assert np.abs(got.values[:, :, 0] - true).max() < 1e-9
        assert np.abs(quadric_residuals_323(z, got)).max() < 1e-9


def test_solve_fiber_323_round_trip_other_ref_cell():
    params = seeded_chain((3, 2, 3), 4242)
    marg, lam = split(joint_from_chain(params))
    z = cross_ratios(marg, ref_cell=(1, 2))
    true = lam.values[:, :, 0]
    # in the relabelled frame rows are (1, 0, 2), cols (2, 0, 1):
    # the free values sit at original (0, 2) and (0, 0)
    got = solve_fiber_323(z, float(true[0, 2]), float(true[0, 0]))
    assert np.abs(got.values[:, :, 0] - true).max() < 1e-9


def test_solve_fiber_323_independence_constant_field():
    ones = CrossRatios((3, 3), (0, 0), np.ones((2, 2)))
    got = solve_fiber_323(ones, 0.4, 0.4)
    assert np.abs(got.values[:, :, 0] - 0.4).max() == 0.0


def test_solve_fiber_323_singular_denominator():
    params = seeded_chain((3, 2, 3), 321)
    z = cross_ratios(marginal_13(joint_from_chain(params)))
    assert abs(z.z1 - 1.0) > 1e-3
    with pytest.raises(SingularDenominator):
        solve_fiber_323(z, 0.4, 0.4)


def test_solve_fiber_323_off_variety():
    rng = np.random.default_rng(20260809)
    marg = MarginalTable((3, 3), rng.dirichlet(np.ones(9)).reshape(3, 3))
    with pytest.raises(OffVariety):
        solve_fiber_323(cross_ratios(marg), 0.3, 0.5)


def test_solve_fiber_323_open_set_of_free_parameters():
    # at least one admissible free pair among 100 per model
    from latentgeom import GeometryError
    for seed in range(20):
        params = seeded_chain((3, 2, 3), 800 + seed)
        z = cross_ratios(marginal_13(joint_from_chain(params)))
        rng = np.random.default_rng(800 + seed)
        successes = 0
        for _ in range(100):
            l21, l22 = rng.uniform(0.0, 1.0, 2)
            try:
                solve_fiber_323(z, float(l21), float(l22))
                successes += 1
            except GeometryError:
                continue
        assert successes >= 1


# ---------------------------------------------------------------- degenerate family

def test_degenerate_family_quadrics_and_scales():
    joint = seeded_joint((3, 2, 3), 91)  # any positive 3x3 marginal works
    marg = marginal_13(joint)
    z = cross_ratios(marg)
    lam21, lam31 = 0.2, 0.3
    fam = degenerate_family_323(z, lam21, lam31)
    assert np.abs(quadric_residuals_323(z, fam)).max() < 1e-10
    assert fam.values[1, 1, 1] == pytest.approx(lam21 / z.z1, abs=1e-15)
    assert fam.values[1, 2, 1] == pytest.approx(lam21 / z.z2, abs=1e-15)
    assert fam.values[2, 1, 1] == pytest.approx(lam31 / z.z3, abs=1e-15)
    assert fam.values[2, 2, 1] == pytest.approx(lam31 / z.z4, abs=1e-15)


def test_degenerate_family_structural_zeros():
    marg = marginal_13(seeded_joint((3, 2, 3), 92))
    z = cross_ratios(marg)
    fam = degenerate_family_323(z, 0.25, 0.1)
    joint = merge(marg, fam)
    assert np.array_equal(joint.cells[0, 0, :], np.zeros(3))


def test_degenerate_family_zero_branch_swaps_labels():
    marg = marginal_13(seeded_joint((3, 2, 3), 93))
    z = cross_ratios(marg)
    ones = degenerate_family_323(z, 0.25, 0.1, branch="ones")
    zeros = degenerate_family_323(z, 0.25, 0.1, branch="zeros")
    assert np.array_equal(ones.values[:, :, 0], zeros.values[:, :, 1])
    joint = merge(marg, zeros)
    assert np.array_equal(joint.cells[0, 1, :], np.zeros(3))


def test_degenerate_family_scale_out_of_range():
    marg = marginal_13(seeded_joint((3, 2, 3), 94))
    z = cross_ratios(marg)
    small = min(z.z1, z.z2, z.z3, z.z4)
    assert small < 0.99
    with pytest.raises(OutOfUnitBox):
        degenerate_family_323(z, 1.0, 1.0)


# ---------------------------------------------------------------- label swap

def test_label_swap_preserves_marginal():
    joint = seeded_joint((3, 2, 3), 95)
    marg, lam = split(joint)
    swapped = LambdaField(lam.shape, lam.values[:, :, ::-1])
    back = merge(marg, swapped)
    assert np.abs(marginal_13(back).cells - marg.cells).max() < 1e-15
