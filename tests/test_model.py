import numpy as np
import pytest

from latentgeom import (
    BoundaryPoint,
    ChainParams,
    CountTable,
    DimsCase,
    InvalidParameter,
    JointTable,
    MarginalTable,
    Shape,
    ci_residuals,
    dims,
    jacobian_rank,
    joint_from_chain,
    marginal_13,
)
from latentgeom import model
from latentgeom.model import RANK_CUTOFF, _clique_margin_jacobian, _row_chart_jacobian
from conftest import pushed_chain, seeded_chain, seeded_joint

SWEEP = [(r1, r2, r3) for r1 in range(2, 7) for r2 in range(2, 7)
         for r3 in range(2, 7)]


def uniform_chain(r1, r2, r3):
    return ChainParams(
        Shape(r1, r2, r3),
        np.full(r1, 1.0 / r1),
        np.full((r1, r2), 1.0 / r2),
        np.full((r2, r3), 1.0 / r3),
    )


# ---------------------------------------------------------------- types

@pytest.mark.parametrize("bad", [(1, 2, 2), (2, 1, 2), (2, 2, 0), (2, 2, -3)])
def test_shape_rejects_small_cardinalities(bad):
    with pytest.raises(InvalidParameter):
        Shape(*bad)


@pytest.mark.parametrize("shape", [(2.9, "3"), (2.0, 3), (2, "3"), (2, 3.5),
                                   (2, 3, 1), (6,), "23", 6, None, (True, 3)])
def test_table_shapes_are_integers_not_truncated(shape):
    # the rule of Shape: a float, a string or a bool is refused, not read by
    # int()
    cells = np.full((2, 3), 1 / 6)
    with pytest.raises(InvalidParameter, match="shape must be two integers"):
        MarginalTable(shape, cells)
    with pytest.raises(InvalidParameter, match="shape must be two integers"):
        CountTable(shape, np.ones((2, 3), dtype=int))


def test_table_shapes_take_numpy_integers():
    shape = (np.int64(2), np.int32(3))
    assert MarginalTable(shape, np.full((2, 3), 1 / 6)).shape == (2, 3)
    counts = CountTable(shape, np.ones((2, 3), dtype=int))
    assert counts.shape == (2, 3)
    assert all(type(v) is int for v in counts.shape)


def test_joint_table_validates_sum_and_sign():
    sh = Shape(2, 2, 2)
    with pytest.raises(InvalidParameter):
        JointTable(sh, np.full((2, 2, 2), 0.2))
    cells = np.full((2, 2, 2), 0.125)
    cells[0, 0, 0] = -0.125
    cells[1, 1, 1] = 0.375
    with pytest.raises(InvalidParameter):
        JointTable(sh, cells)


def test_joint_table_flat_order_is_k_fastest():
    sh = Shape(2, 2, 2)
    flat = np.array([0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    table = JointTable.from_flat(sh, flat)
    assert table.cells[0, 0, 0] == 0.3
    assert table.cells[0, 0, 1] == 0.1
    assert np.array_equal(table.flat, flat)


def test_joint_table_interior_flag():
    sh = Shape(2, 2, 2)
    assert JointTable(sh, np.full((2, 2, 2), 0.125)).interior
    cells = np.full((2, 2, 2), 0.125)
    cells[0, 0, 0] = 0.0
    cells[1, 1, 1] = 0.25
    assert not JointTable(sh, cells).interior


def test_chain_params_validates_rows():
    sh = Shape(2, 2, 2)
    with pytest.raises(InvalidParameter):
        ChainParams(sh, [0.5, 0.5], [[0.7, 0.2], [0.5, 0.5]],
                    [[0.5, 0.5], [0.5, 0.5]])


def test_values_are_frozen():
    params = seeded_chain((2, 2, 2), 0)
    with pytest.raises(ValueError):
        params.a[0, 0] = 0.5


# ---------------------------------------------------------------- forward map

def test_uniform_chain_gives_uniform_joint():
    joint = joint_from_chain(uniform_chain(2, 2, 2))
    assert np.array_equal(joint.cells, np.full((2, 2, 2), 0.125))


def test_degenerate_p1_zeroes_its_block():
    params = ChainParams(Shape(2, 2, 2), [1.0, 0.0],
                         [[0.3, 0.7], [0.6, 0.4]],
                         [[0.2, 0.8], [0.9, 0.1]])
    joint = joint_from_chain(params)
    assert np.array_equal(joint.cells[1], np.zeros((2, 2)))


def test_chain_joint_satisfies_all_quadrics():
    # direct substitution oracle, every reference cell
    joint = joint_from_chain(seeded_chain((3, 2, 3), 42))
    th = joint.cells
    for ref_i in range(3):
        for ref_k in range(3):
            res = ci_residuals(joint, (ref_i, ref_k))
            assert np.abs(res).max() < 1e-12
            # independent re-derivation of the first residual
            i = [x for x in range(3) if x != ref_i][0]
            k = [x for x in range(3) if x != ref_k][0]
            expected = th[ref_i, 0, ref_k] * th[i, 0, k] \
                - th[ref_i, 0, k] * th[i, 0, ref_k]
            assert res[0] == expected


def loop_ci_residuals(joint, ref_cell):
    # reference: the documented enumeration, one residual at a time
    r1, r2, r3 = joint.shape.astuple()
    ref_i, ref_k = ref_cell
    th = joint.cells
    out = []
    for j in range(r2):
        for i in range(r1):
            for k in range(r3):
                if i != ref_i and k != ref_k:
                    out.append(th[ref_i, j, ref_k] * th[i, j, k]
                               - th[ref_i, j, k] * th[i, j, ref_k])
    return np.array(out)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3), (4, 3, 2),
                                   (2, 4, 5), (6, 2, 3)])
def test_ci_residuals_equal_loop_reference(shape):
    joint = seeded_joint(shape, 7)
    for ref_i in range(shape[0]):
        for ref_k in range(shape[2]):
            got = ci_residuals(joint, (ref_i, ref_k))
            assert np.array_equal(got, loop_ci_residuals(joint, (ref_i, ref_k)))


def test_ci_residual_hand_value():
    # theta = (0.3, 0.1, ..., 0.1) in flat order: the j=1 residual is
    # 0.3*0.1 - 0.1*0.1 = 0.02
    table = JointTable.from_flat(
        Shape(2, 2, 2), [0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    res = ci_residuals(table, (0, 0))
    assert res[0] == pytest.approx(0.02, abs=1e-15)


def test_ci_residual_count_323_is_8():
    joint = joint_from_chain(seeded_chain((3, 2, 3), 1))
    assert ci_residuals(joint).size == 8


def test_marginal_13():
    assert np.array_equal(
        marginal_13(joint_from_chain(uniform_chain(2, 2, 2))).cells,
        np.full((2, 2), 0.25))
    params = seeded_chain((3, 2, 3), 7)
    got = marginal_13(joint_from_chain(params)).cells
    expected = params.p1[:, None] * (params.a @ params.b)
    assert np.abs(got - expected).max() < 1e-14


def test_marginal_of_point_mass():
    sh = Shape(2, 2, 2)
    flat = np.zeros(8)
    flat[0] = 1.0
    got = marginal_13(JointTable.from_flat(sh, flat))
    assert got.cells[0, 0] == 1.0
    assert got.cells.sum() == 1.0


# ---------------------------------------------------------------- dimensions

@pytest.mark.parametrize("shape,expected", [
    ((2, 2, 2), dict(d=7, t=5, s=2, m=3, fiber=2, case=DimsCase.R2_LARGE)),
    ((3, 2, 3), dict(d=17, t=9, s=8, m=7, fiber=2, case=DimsCase.R2_SMALL)),
    ((4, 3, 4), dict(d=47, t=20, s=27, m=14, fiber=6, case=DimsCase.R2_SMALL)),
    ((2, 3, 2), dict(d=11, t=8, s=3, m=3, fiber=5, case=DimsCase.R2_LARGE)),
])
def test_dims_golden(shape, expected):
    got = dims(Shape(*shape))
    for key, val in expected.items():
        assert getattr(got, key) == val


def test_dims_constraint_counts():
    assert dims(Shape(3, 2, 3)).constraint_count == 1
    assert dims(Shape(4, 3, 4)).constraint_count == 1
    assert dims(Shape(2, 3, 2)).constraint_count == 0


def test_dims_identities_sweep():
    for r1, r2, r3 in SWEEP:
        d = dims(Shape(r1, r2, r3))
        assert d.t == d.d - d.s
        assert d.fiber == d.t - d.m
        assert d.s == r2 * (r1 - 1) * (r3 - 1)
        if d.case is DimsCase.R2_SMALL:
            assert d.fiber == r2 * (r2 - 1)
            assert d.m == r2 * (r1 + r3 - r2) - 1
            assert d.constraint_count == (r1 - r2) * (r3 - r2)
        else:
            assert d.m == r1 * r3 - 1
            assert d.fiber == r2 * (r1 + r3 - 1) - r1 * r3


def test_residual_count_matches_s_sweep():
    for r1, r2, r3 in SWEEP:
        joint = seeded_joint((r1, r2, r3), r1 * 100 + r2 * 10 + r3)
        assert ci_residuals(joint).size == dims(Shape(r1, r2, r3)).s


# ---------------------------------------------------------------- DAG dims

def test_dag_chain_matches_model_dimension_sweep():
    # the DAG parameter count: per node, its parent configurations times
    # (cardinality - 1)
    for r1, r2, r3 in SWEEP:
        dag_count = (r1 - 1) + r1 * (r2 - 1) + r2 * (r3 - 1)
        assert dag_count == dims(Shape(r1, r2, r3)).t


# ---------------------------------------------------------------- rank

@pytest.mark.parametrize("shape,expected", [
    ((2, 2, 2), 5), ((3, 2, 3), 9), ((4, 3, 4), 20), ((2, 3, 2), 8),
])
def test_jacobian_rank_equals_t(shape, expected):
    for seed in range(5):
        params = seeded_chain(shape, 9000 + seed)
        assert jacobian_rank(params) == expected


def fd_cell_jacobian_rank(params, step=1e-6):
    # reference: central differences of the full cell map on the minimal
    # chart; the map is affine in each chart coordinate
    r1, r2, r3 = params.shape.astuple()
    x0 = np.concatenate([params.p1[:-1], params.a[:, :-1].ravel(),
                         params.b[:, :-1].ravel()])

    def cells(x):
        p1 = np.append(x[:r1 - 1], 1 - x[:r1 - 1].sum())
        a = x[r1 - 1:r1 * r2 - 1].reshape(r1, r2 - 1)
        a = np.hstack([a, 1 - a.sum(axis=1, keepdims=True)])
        b = x[r1 * r2 - 1:].reshape(r2, r3 - 1)
        b = np.hstack([b, 1 - b.sum(axis=1, keepdims=True)])
        return np.einsum("i,ij,jk->ijk", p1, a, b).ravel()

    cols = []
    for m in range(x0.size):
        dx = np.zeros(x0.size)
        dx[m] = step
        cols.append((cells(x0 + dx) - cells(x0 - dx)) / (2 * step))
    sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
    return int(np.sum(sv > RANK_CUTOFF * sv[0]))


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3), (4, 3, 4), (2, 3, 2)])
def test_jacobian_rank_equals_cell_map_rank(shape):
    for seed in range(5):
        params = seeded_chain(shape, 9000 + seed)
        assert jacobian_rank(params) == fd_cell_jacobian_rank(params)


def test_jacobian_rank_equals_cell_map_rank_10x3x10():
    params = seeded_chain((10, 3, 10), 4, floor=1e-3)
    assert jacobian_rank(params) == fd_cell_jacobian_rank(params) == 56


@pytest.mark.parametrize("eps", [1e-7, 2e-9])
@pytest.mark.parametrize("block", ["p1", "a", "b"])
@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3), (4, 3, 4)])
def test_jacobian_rank_equals_cell_map_rank_near_boundary(shape, block, eps):
    for seed in range(3):
        params = pushed_chain(shape, 100 + seed, block, eps)
        assert jacobian_rank(params) == fd_cell_jacobian_rank(params)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3)])
def test_clique_margin_jacobian_matches_sympy(shape):
    sympy = pytest.importorskip("sympy")
    r1, r2, r3 = shape
    x = sympy.symbols(f"x0:{(r1 - 1) + r1 * (r2 - 1) + r2 * (r3 - 1)}")

    def simplex_rows(coords, nrows, n):
        rows = [list(coords[r * (n - 1):(r + 1) * (n - 1)]) for r in range(nrows)]
        return [row + [1 - sum(row)] for row in rows]

    n1, na = r1 - 1, r1 * (r2 - 1)
    (p1,) = simplex_rows(x[:n1], 1, r1)
    a = simplex_rows(x[n1:n1 + na], r1, r2)
    b = simplex_rows(x[n1 + na:], r2, r3)
    m = [sum(p1[i] * a[i][j] for i in range(r1)) for j in range(r2)]
    u = [p1[i] * a[i][j] for i in range(r1) for j in range(r2)]
    v = [m[j] * b[j][k] for j in range(r2) for k in range(r3)]
    symbolic = sympy.lambdify(x, sympy.Matrix(u + v).jacobian(x), "numpy")

    params = seeded_chain(shape, 31)
    point = np.concatenate([params.p1[:-1], params.a[:, :-1].ravel(),
                            params.b[:, :-1].ravel()])
    expected = np.array(symbolic(*point), dtype=float)
    got = _clique_margin_jacobian(params)
    assert got.shape == (r1 * r2 + r2 * r3, len(x))
    assert np.allclose(got, expected, rtol=0, atol=1e-15)


def einsum_clique_margin_jacobian(params):
    # reference: the clique-margin Jacobian assembled block by block
    r1, r2, r3 = params.shape.astuple()
    p1, a, b = params.p1, params.a, params.b
    d1, d2, d3 = (_row_chart_jacobian(n) for n in (r1, r2, r3))
    rows1, rows2 = np.arange(r1), np.arange(r2)
    du_da = np.zeros((r1, r2, r1, r2 - 1))
    du_da[rows1, :, rows1, :] = np.einsum("i,jq->ijq", p1, d2)
    dv_db = np.zeros((r2, r3, r2, r3 - 1))
    dv_db[rows2, :, rows2, :] = np.einsum("j,kq->jkq", p1 @ a, d3)
    nu, nv = r1 * r2, r2 * r3
    return np.block([
        [np.einsum("ij,il->ijl", a, d1).reshape(nu, r1 - 1),
         du_da.reshape(nu, r1 * (r2 - 1)),
         np.zeros((nu, r2 * (r3 - 1)))],
        [np.einsum("il,ij,jk->jkl", d1, a, b).reshape(nv, r1 - 1),
         np.einsum("l,jq,jk->jklq", p1, d2, b).reshape(nv, r1 * (r2 - 1)),
         dv_db.reshape(nv, r2 * (r3 - 1))],
    ])


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3), (2, 5, 3), (6, 4, 2),
                                   (10, 3, 10), (30, 5, 30)])
def test_clique_margin_jacobian_equals_the_einsum_reference(shape):
    for seed in range(3):
        params = seeded_chain(shape, 40 + seed, floor=1e-3)
        assert np.array_equal(_clique_margin_jacobian(params),
                              einsum_clique_margin_jacobian(params))


def test_row_chart_jacobian_singular_values_are_at_least_one():
    # the premise of the rank certificate, up to the SVD's own rounding
    for n in range(2, 51):
        sv = np.linalg.svd(_row_chart_jacobian(n), compute_uv=False)
        assert sv.min() >= 1 - n * np.finfo(float).eps


def test_row_chart_jacobian_gram_matches_sympy():
    # d_n^T d_n = I + 11^T exactly, with eigenvalues 1 (n - 2 times) and n
    sympy = pytest.importorskip("sympy")
    for n in range(2, 12):
        d = sympy.Matrix(_row_chart_jacobian(n).astype(int))
        gram = d.T * d
        assert gram == sympy.eye(n - 1) + sympy.ones(n - 1, n - 1)
        assert gram.eigenvals() == ({1: n - 2, n: 1} if n > 2 else {2: 1})


@pytest.mark.parametrize("shape", [(10, 3, 10), (30, 5, 30)])
def test_jacobian_rank_certifies_interior_chains_without_an_svd(monkeypatch, shape):
    def no_svd(mat):
        raise AssertionError("the norm bound should have decided the rank")

    monkeypatch.setattr(model, "_numerical_rank", no_svd)
    for seed in range(3):
        params = seeded_chain(shape, seed, floor=1e-3)
        assert jacobian_rank(params) == dims(Shape(*shape)).t


def test_jacobian_rank_falls_back_to_the_svd_near_the_boundary(monkeypatch):
    seen = []
    real = model._numerical_rank
    monkeypatch.setattr(model, "_numerical_rank",
                        lambda mat: seen.append(mat.shape) or real(mat))
    params = pushed_chain((3, 2, 3), 100, "p1", eps=2e-9)
    assert jacobian_rank(params) == fd_cell_jacobian_rank(params)
    assert seen == [(12, 9)]


def test_jacobian_rank_rejects_boundary():
    params = ChainParams(Shape(2, 2, 2), [1.0, 0.0],
                         [[0.3, 0.7], [0.6, 0.4]],
                         [[0.2, 0.8], [0.9, 0.1]])
    with pytest.raises(BoundaryPoint):
        jacobian_rank(params)


# ---------------------------------------------------------------- equality

def test_value_types_compare_field_wise():
    from latentgeom import (CountTable, MixingMatrix, em_fit_details,
                            extreme_mixings, profile_along_fiber)
    params = seeded_chain((3, 2, 3), 60)
    twin = ChainParams(params.shape, params.p1.copy(), params.a.copy(),
                       params.b.copy())
    assert params == twin and not params != twin
    other = seeded_chain((3, 2, 3), 61)
    assert params != other
    assert params != other.shape       # another type is never equal
    with pytest.raises(TypeError):
        hash(params)                    # arrays keep the types unhashable

    assert MixingMatrix.identity(2) == MixingMatrix(np.eye(2))
    assert MixingMatrix.identity(2) != MixingMatrix.from_pi_rho(0.9, 0.2)
    with pytest.raises(TypeError):
        hash(MixingMatrix.identity(2))
    assert extreme_mixings(params) == extreme_mixings(twin)
    assert extreme_mixings(params) != extreme_mixings(other)

    counts = CountTable((3, 3), np.arange(1, 10).reshape(3, 3))
    vertex = extreme_mixings(params)[0].q
    trace = profile_along_fiber(counts, params, vertex, 5)
    assert trace == profile_along_fiber(counts, twin, vertex, 5)
    assert trace != profile_along_fiber(counts, params, vertex, 6)
    with pytest.raises(TypeError):
        hash(trace)

    fit = em_fit_details(counts, params.shape, seed=3, maxiter=20)
    assert fit == em_fit_details(counts, params.shape, seed=3, maxiter=20)
    assert fit != em_fit_details(counts, params.shape, seed=4, maxiter=20)


def test_table_types_compare_field_wise():
    from latentgeom import CountTable, cross_ratios, split
    joint = seeded_joint((3, 2, 3), 64)
    marginal, lambdas = split(joint)
    counts = CountTable((3, 3), np.arange(9).reshape(3, 3) + 1)
    for value in (joint, marginal, lambdas, cross_ratios(marginal), counts):
        twin = type(value)(**{f: getattr(value, f)
                              for f in value.__dataclass_fields__})
        assert value == twin and value is not twin
        with pytest.raises(TypeError):
            hash(value)
    assert joint != seeded_joint((3, 2, 3), 65)
    assert counts != CountTable((3, 3), np.arange(9).reshape(3, 3) + 2)


def test_consistency_reports_compare_with_and_without_witness():
    from latentgeom import consistency_check, diagonal_marginal
    target = marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 62)))
    found = consistency_check(target, r2=2)
    assert found.witness is not None
    assert found == consistency_check(target, r2=2)
    # rank 3 > r2 = 2: proven infeasible, no witness
    none = consistency_check(diagonal_marginal(3, 3), r2=2)
    assert none.witness is None
    assert none == consistency_check(diagonal_marginal(3, 3), r2=2)
    assert found != none and none != found
    other = consistency_check(
        marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 63))), r2=2)
    assert found != other


#: the public API; a name added to or removed from ``latentgeom.__all__``
#: must be added to or removed from this set in the same change
PUBLIC_NAMES = {
    "BinaryFiberSolution", "BoundaryPoint", "ChainParams", "ConsistencyReport",
    "ConstraintViolation", "CountTable", "CrossRatios", "DegenerateInput",
    "Dims", "DimsCase", "EmFit", "ExtremeMixing", "GeometryError",
    "InvalidMixing", "InvalidParameter", "JointTable", "LambdaField",
    "MarginalTable", "MixingMatrix", "NoRealSolution", "OffVariety",
    "OutOfUnitBox", "PathExitsPolytope", "ProfileTrace", "RejectionStall",
    "RhoPiBounds", "Shape", "SingularDenominator", "SingularMixing",
    "SingularPair", "ZeroCell", "apply_mixing", "binary_fiber_solve",
    "binary_surface", "ci_residuals", "consistency_check", "cross_ratios",
    "degenerate_family_323", "diagonal_marginal", "dims", "em_fit_details",
    "extreme_mixings", "fiber_dimension", "is_regular", "jacobian_rank",
    "joint_from_chain", "kl_divergence", "loglik", "marginal_13",
    "marginal_identity_323", "marginal_rank", "merge", "permute_latent",
    "profile_along_fiber", "quadric_residuals_323", "random_chain",
    "rho_pi_bounds", "sample_fiber", "solve_fiber_323", "split",
}


def test_public_names_are_unique_and_resolve():
    import latentgeom
    assert len(set(latentgeom.__all__)) == len(latentgeom.__all__)
    assert set(latentgeom.__all__) == PUBLIC_NAMES
    for name in latentgeom.__all__:
        assert getattr(latentgeom, name) is not None, name
    # shape errors are InvalidParameter
    assert not hasattr(latentgeom, "ShapeMismatch")
