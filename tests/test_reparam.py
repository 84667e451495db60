import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentgeom import (
    CrossRatios,
    InvalidParameter,
    JointTable,
    LambdaField,
    MarginalTable,
    NoRealSolution,
    OffVariety,
    OutOfUnitBox,
    Shape,
    SingularDenominator,
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
from latentgeom.model import CLAMP_EPS, _stochastic
from latentgeom.reparam import _outside_unit_box
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


@pytest.mark.parametrize("flags", [
    [["no", "no"], ["", "x"]],
    [[2, 0.5], [0, 0]],
    [[1, 0], [0, 1]],
    np.zeros((2, 2)),
])
def test_unconstrained_flags_must_be_booleans(flags):
    with pytest.raises(InvalidParameter,
                       match="unconstrained flags must be booleans"):
        LambdaField(Shape(2, 2, 2), np.full((2, 2, 2), 0.5), flags)


def test_unconstrained_flags_keep_their_values():
    flags = [[True, False], [np.False_, np.True_]]
    lam = LambdaField(Shape(2, 2, 2), np.full((2, 2, 2), 0.5), flags)
    assert lam.unconstrained.tolist() == [[True, False], [False, True]]
    with pytest.raises(InvalidParameter, match=r"^unconstrained has shape \(2,\), expected \(2, 2\)$"):
        LambdaField(Shape(2, 2, 2), np.full((2, 2, 2), 0.5), [True, False])


#: entries at and around the edges of [0, 1], and ones no row holds
EDGES = [-CLAMP_EPS, -5e-13, -0.0, 0.0, 5e-13, 0.5, 1.0 - 5e-13, 1.0, 1.0 + 5e-13,
         1.0 + CLAMP_EPS, 1.5, np.nan, np.inf]
#: how an edit places one: whole slices twice as often as single entries,
#: which rarely leave a row that sums to 1
EDITS = ["pair", "alone"] * 2 + ["entry"]


@settings(max_examples=200, deadline=None)
@given(r1=st.integers(2, 3), r2=st.integers(2, 4), r3=st.integers(2, 3),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 1.0 + 2e-12]),
       edits=st.lists(st.tuples(st.integers(0, 47), st.sampled_from(EDGES),
                                st.sampled_from(EDITS)),
                      max_size=3))
def test_lambda_field_takes_exactly_the_stacks_of_probability_rows(r1, r2, r3, seed,
                                                                    scale, edits):
    # an edit puts an edge entry x into a random row, or makes its slice
    # (x, 1 - x, 0, ...) or (x, 0, ...); the field is accepted exactly
    # when the package's row test accepts every slice, and is then kept bit
    # for bit
    values = np.random.default_rng(seed).dirichlet(np.ones(r2), (r1, r3)) * scale
    rows = values.reshape(-1, r2)
    for pos, x, how in edits:
        row, j = divmod(pos % rows.size, r2)
        if how != "entry":
            rows[row] = 0.0
            rows[row, (j + 1) % r2] = 1.0 - x if how == "pair" else 0.0
        rows[row, j] = x
    try:
        lam = LambdaField(Shape(r1, r2, r3), values)
    except InvalidParameter:
        assert not _stochastic(rows)
    else:
        assert _stochastic(rows)
        assert lam.values.tobytes() == values.tobytes()
        assert lam.values.flags.c_contiguous and not lam.values.flags.writeable


@settings(max_examples=200, deadline=None)
@given(r1=st.integers(2, 3), r2=st.integers(2, 4), r3=st.integers(2, 3),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 1.0 + 2e-12]),
       edits=st.lists(st.tuples(st.integers(0, 47), st.sampled_from(EDGES),
                                st.sampled_from(EDITS)),
                      max_size=3))
def test_tables_take_exactly_the_cells_that_are_one_probability_row(r1, r2, r3, seed,
                                                                    scale, edits):
    # the edits of the field's property on the flat cells, where a whole
    # slice is the whole table: a JointTable, and a MarginalTable of the
    # same cells, is accepted exactly when the package's row test accepts
    # its cells as one row, and is then kept bit for bit
    cells = np.random.default_rng(seed).dirichlet(np.ones(r1 * r2 * r3)) * scale
    for pos, x, how in edits:
        j = pos % cells.size
        if how != "entry":
            cells[:] = 0.0
            cells[(j + 1) % cells.size] = 1.0 - x if how == "pair" else 0.0
        cells[j] = x
    for build in (lambda: JointTable(Shape(r1, r2, r3), cells.reshape(r1, r2, r3)),
                  lambda: MarginalTable((r1 * r2, r3), cells.reshape(r1 * r2, r3))):
        try:
            stored = build().cells
        except InvalidParameter:
            assert not _stochastic(cells[None])
        else:
            assert _stochastic(cells[None])
            assert stored.tobytes() == cells.tobytes()
            assert stored.flags.c_contiguous and not stored.flags.writeable


def test_lambda_values_past_the_box_are_kept_or_refused_never_clipped():
    # -CLAMP_EPS is a negative entry; 1 + 5e-13 beside 0.0 sums to 1
    # within SUM_TOL and is kept as given
    edge = np.array([[[1.0 + CLAMP_EPS, -CLAMP_EPS], [0.5, 0.5]],
                     [[0.25, 0.75], [0.5, 0.5]]])
    with pytest.raises(InvalidParameter,
                       match=r"^values\(0, 0, 1\) is negative: -1e-12$"):
        LambdaField(Shape(2, 2, 2), edge)
    edge[0, 0] = 1.0 + 5e-13, 0.0
    lam = LambdaField(Shape(2, 2, 2), edge)
    assert lam.values[0, 0].tolist() == [1.0 + 5e-13, 0.0]
    assert lam.values.tobytes() == edge.tobytes() and not lam.values.flags.writeable


def test_the_solvers_box_is_the_unit_interval_widened_by_clamp_eps():
    # both ends are inside and the next float outward from each is not; a
    # NaN is not outside, and the first entry outside is the one named
    lo, hi = -CLAMP_EPS, 1.0 + CLAMP_EPS
    below, above = float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))
    assert _outside_unit_box([lo, hi, -0.0, 0.0, 1.0, np.nan]) is None
    assert _outside_unit_box([]) is None
    assert _outside_unit_box([below]) == 0
    assert _outside_unit_box([0.5, above]) == 1
    assert _outside_unit_box(iter([np.nan, hi, 2.0, below, 3.0])) == 2


def test_merge_shape_mismatch():
    lam = LambdaField(Shape(2, 2, 2), np.full((2, 2, 2), 0.5))
    marg = MarginalTable((2, 3), np.full((2, 3), 1 / 6))
    with pytest.raises(InvalidParameter,
                       match=r"marginal shape \(2, 3\) does not match lambda "
                             r"field \(2, 2\)"):
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


@pytest.mark.parametrize("ref_cell", [(0.9, 1.5), (1, 2.0), (False, 1), "12"])
def test_cross_ratios_ref_cell_is_an_integer_pair(ref_cell):
    marg = seeded_marginal((3, 3), 3)
    with pytest.raises(InvalidParameter, match="reference cell must be two integers"):
        cross_ratios(marg, ref_cell)
    with pytest.raises(InvalidParameter, match="reference cell must be two integers"):
        CrossRatios((3, 3), ref_cell, np.ones((2, 2)))
    assert cross_ratios(marg, (np.int64(1), 2)) == cross_ratios(marg, (1, 2))


@pytest.mark.parametrize("shape", [(3.0, 3), (3, 3.9), ("3", 3), (True, 3)])
def test_cross_ratios_marginal_shape_is_an_integer_pair(shape):
    with pytest.raises(InvalidParameter, match="marginal shape must be two integers"):
        CrossRatios(shape, (0, 0), np.ones((2, 2)))


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


@pytest.mark.parametrize("c1, c2", [(-0.0, 0.0), (0.0, -0.0), (-0.0, 0.3)])
def test_binary_fiber_solve_signed_zero(c1, c2):
    # a -0.0 input gives the roots of 0.0, not a -0.0 root
    points = binary_fiber_solve(2.0, c1, c2).points
    assert repr(points) == repr(binary_fiber_solve(2.0, abs(c1), abs(c2)).points)


@pytest.mark.parametrize("c1, c2", [(-0.0, 0.0), (0.0, -0.0), (-0.0, 0.3)])
def test_binary_fiber_solve_signed_zero_names_the_unsigned_roots(c1, c2):
    # roots that leave the unit box read as those of 0.0 too: the solver
    # shares fig3's product, with a -0.0 product taken as 0.0
    with pytest.raises(OutOfUnitBox) as signed:
        binary_fiber_solve(0.25, c1, c2)
    with pytest.raises(OutOfUnitBox) as unsigned:
        binary_fiber_solve(0.25, abs(c1), abs(c2))
    assert str(signed.value) == str(unsigned.value)


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


def test_binary_surface_formulas_satisfy_both_quadrics_identically():
    sympy = pytest.importorskip("sympy")
    l12, l22, z = sympy.symbols("lam12 lam22 z", positive=True)
    n = 1 - l12 - z * (1 - l22)
    l21 = n * l22 / (l22 - l12)
    l11 = n * l12 / (z * (l22 - l12))
    for residual in binary_system_residuals(l11, l21, l12, l22, z):
        assert sympy.simplify(residual) == 0
    # and binary_surface computes exactly these formulas
    formulas = sympy.lambdify((l12, l22, z), (l21, l11), "math")
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        a, b = rng.uniform(0.02, 0.98, 2)
        zz = admissible_z(a, b, rng) if abs(b - a) >= 1e-3 else None
        if zz is None:
            continue
        assert np.allclose(binary_surface(a, b, zz), formulas(a, b, zz),
                           rtol=1e-12, atol=1e-15)
        checked += 1


def test_binary_surface_z_one_degenerate_branch():
    l21, l11 = binary_surface(0.3, 0.7, 1.0)
    assert (l21, l11) == (0.7, 0.3)
    r7, r8 = binary_system_residuals(l11, l21, 0.3, 0.7, 1.0)
    assert r7 == 0.0 and r8 == 0.0
    # z = 1 takes an equal pair too, which any other z refuses
    assert binary_surface(0.4, 0.4, 1.0) == (0.4, 0.4)


def test_binary_surface_singular_pair():
    with pytest.raises(SingularDenominator):
        binary_surface(0.4, 0.4, 1.3)


def test_binary_surface_constraint_violation_names_inequality():
    # l22 > l12 needs z > l12/l22; here z is below the window
    with pytest.raises(OutOfUnitBox) as err:
        binary_surface(0.6, 0.8, 0.5)
    assert "lam12/lam22" in str(err.value)
    with pytest.raises(OutOfUnitBox):
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


def elimination_323(z1, z2, z3, z4, l21, l22):
    """The elimination chain of :func:`solve_fiber_323`'s docstring, in the
    frame where the reference cell is (0, 0)."""
    lam = [[None] * 3 for _ in range(3)]
    lam[1][0], lam[1][1] = l21, l22
    phi1 = 1 - l21 - z1 * (1 - l22)
    lam[0][0] = l21 * phi1 / (z1 * (l22 - l21))
    lam[0][1] = l22 * phi1 / (l22 - l21)
    l00, l01 = lam[0][0], lam[0][1]
    phi2 = 1 - l21 - z2 * (1 - l00)
    lam[1][2] = l21 * phi2 / (z2 * (l00 - l21))
    lam[0][2] = l00 * phi2 / (l00 - l21)
    phi3 = 1 - l01 - z3 * (1 - l00)
    lam[2][1] = l01 * phi3 / (z3 * (l00 - l01))
    lam[2][0] = l00 * phi3 / (l00 - l01)
    lam[2][2] = lam[0][2] * lam[2][0] / (z4 * l00)
    return lam


def test_solve_fiber_323_elimination_satisfies_all_eight_quadrics():
    sympy = pytest.importorskip("sympy")
    z1, z2, z3, z4, l21, l22 = sympy.symbols("z1 z2 z3 z4 lam21 lam22",
                                             positive=True)
    # z4 eliminated with the rank-2 identity
    # z1 z4 - z2 z3 - (z1 + z4) + (z2 + z3) = 0
    on_variety = (z2 * z3 - z2 - z3 + z1) / (z1 - 1)
    lam = elimination_323(z1, z2, z3, on_variety, l21, l22)
    zs = [[z1, z2], [z3, on_variety]]
    for i in (1, 2):
        for k in (1, 2):
            zz = zs[i - 1][k - 1]
            for residual in (
                    zz * lam[0][0] * lam[i][k] - lam[0][k] * lam[i][0],
                    zz * (1 - lam[0][0]) * (1 - lam[i][k])
                    - (1 - lam[0][k]) * (1 - lam[i][0])):
                assert sympy.cancel(sympy.together(residual)) == 0
    # and solve_fiber_323 computes exactly this chain
    formulas = sympy.lambdify((z1, z2, z3, z4, l21, l22),
                              elimination_323(z1, z2, z3, z4, l21, l22), "math")
    for seed in range(25):
        params = seeded_chain((3, 2, 3), 500 + seed)
        marg, lam = split(joint_from_chain(params))
        z = cross_ratios(marg)
        free = float(lam.values[1, 0, 0]), float(lam.values[1, 1, 0])
        got = solve_fiber_323(z, *free)
        expected = formulas(*z.values.ravel().tolist(), *free)
        assert np.allclose(got.values[:, :, 0], expected, rtol=1e-12,
                           atol=1e-15)


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


def test_solve_fiber_323_overflowing_identity_is_off_variety():
    # the identity is about -5e400, which overflows to inf - inf = nan; a
    # NaN must fail the tolerance test, not run the elimination
    z = CrossRatios((3, 3), (0, 0), [[1e200, 2e200], [3e200, 1e200]])
    for lam21, lam22 in ((0.3, 0.5), (0.5, 0.5), (0.8, 0.2)):
        with pytest.raises(OffVariety) as err:
            solve_fiber_323(z, lam21, lam22)
        assert str(err.value) == ("marginal identity residual nan exceeds "
                                  "tolerance 3e+192")


def test_solve_fiber_323_nan_residuals_are_off_variety(monkeypatch):
    from latentgeom import reparam
    marg, lam = split(joint_from_chain(seeded_chain((3, 2, 3), 500)))
    z = cross_ratios(marg)
    free = float(lam.values[1, 0, 0]), float(lam.values[1, 1, 0])
    solve_fiber_323(z, *free)
    monkeypatch.setattr(reparam, "_quadric_residuals_323",
                        lambda z, lam: np.full(8, np.nan))
    with pytest.raises(OffVariety, match="residual nan exceeds"):
        solve_fiber_323(z, *free)


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


# ---------------------------------------------------------------- frame relabelling

def loop_field(ref_cell, first, pinned=0):
    # reference: write the frame's cell (fi, fk) to the original labels one
    # cell at a time, the frame having the reference cell at (0, 0)
    ref_i, ref_k = ref_cell
    rows = [ref_i] + [i for i in range(3) if i != ref_i]
    cols = [ref_k] + [k for k in range(3) if k != ref_k]
    values = np.empty((3, 3, 2))
    for fi, i in enumerate(rows):
        for fk, k in enumerate(cols):
            values[i, k, pinned] = first[fi, fk]
            values[i, k, 1 - pinned] = 1.0 - first[fi, fk]
    return values, rows, cols


@pytest.mark.parametrize("ref_cell", [(i, k) for i in range(3) for k in range(3)])
def test_frame_relabelling_equals_loop_reference(ref_cell):
    from latentgeom.reparam import (
        _field_from_first_component,
        _quadric_residuals_323,
    )
    z = cross_ratios(marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 7))),
                     ref_cell)
    lam = np.random.default_rng(8).uniform(0.05, 0.95, (3, 3))
    field = _field_from_first_component(Shape(3, 2, 3), z, lam)
    expected, rows, cols = loop_field(ref_cell, lam)
    assert np.array_equal(field.values, expected)

    frame = np.empty((3, 3))
    for fi, i in enumerate(rows):
        for fk, k in enumerate(cols):
            frame[fi, fk] = field.values[i, k, 0]
    assert np.array_equal(quadric_residuals_323(z, field),
                          _quadric_residuals_323(z, frame))

    l21 = 0.5 * min(1.0, float(z.values[0].min()))
    l31 = 0.5 * min(1.0, float(z.values[1].min()))
    mu = np.ones((3, 3))
    for fi, free in ((1, l21), (2, l31)):
        mu[fi, 0] = free
        for fk in (1, 2):
            mu[fi, fk] = min(free / float(z.values[fi - 1, fk - 1]), 1.0)
    for branch, pinned in (("ones", 1), ("zeros", 0)):
        got = degenerate_family_323(z, l21, l31, branch=branch)
        assert np.array_equal(got.values, loop_field(ref_cell, mu, pinned)[0])


# ---------------------------------------------------------------- label swap

def test_label_swap_preserves_marginal():
    joint = seeded_joint((3, 2, 3), 95)
    marg, lam = split(joint)
    swapped = LambdaField(lam.shape, lam.values[:, :, ::-1])
    back = merge(marg, swapped)
    assert np.abs(marginal_13(back).cells - marg.cells).max() < 1e-15
