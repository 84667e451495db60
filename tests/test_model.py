import re

import numpy as np
import pytest

from latentgeom import (
    BoundaryPoint,
    ChainParams,
    CountTable,
    CrossRatios,
    DimsCase,
    InvalidParameter,
    JointTable,
    LambdaField,
    MarginalTable,
    MixingMatrix,
    ProfileTrace,
    Shape,
    ci_residuals,
    dims,
    jacobian_rank,
    joint_from_chain,
    loglik,
    marginal_13,
    merge,
    split,
)
from latentgeom.model import RANK_CUTOFF, SUM_TOL
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


@pytest.mark.parametrize("build, message", [
    (lambda: ChainParams(Shape(2, 2, 2), [0.5, 0.5], [[0.5, 0.4], [0.5, 0.5]],
                         [[0.5, 0.5]] * 2), "row 0 of a sums to 0.9, not 1"),
    (lambda: ChainParams(Shape(2, 2, 2), [0.5, 0.5], [[1.25, -0.25]] * 2,
                         [[0.5, 0.5]] * 2), "a(0, 1) is negative: -0.25"),
    (lambda: MarginalTable((2, 2), [[0.75, -0.25], [0.25, 0.25]]),
     "cells(0, 1) is negative: -0.25"),
    (lambda: MixingMatrix([[0.5, 0.4], [0.2, 0.8]]),
     "row 0 of q sums to 0.9, not 1"),
    (lambda: LambdaField(Shape(2, 2, 2), np.full((2, 2, 2), 0.25)),
     "row 0 of values sums to 0.5, not 1"),
    (lambda: LambdaField(Shape(2, 2, 2), np.full((2, 2, 2), 1.5)),
     "row 0 of values sums to 3.0, not 1"),
], ids=["a-row-sum", "a-negative", "cell-negative", "q-row-sum",
        "lambda-slice-sum", "lambda-outside"])
def test_value_messages_print_plain_floats(build, message):
    # an entry or a sum read from an array is a numpy float; messages show
    # its value (0.9), not its repr (np.float64(0.9))
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: ChainParams(Shape(2, 2, 2), [0.5, 0.5], [["a", 1.0], [0.5, 0.5]],
                         [[0.5, 0.5]] * 2), "entries of a must be real numbers"),
    (lambda: ChainParams(Shape(2, 2, 2), [0.5, 0.5], [[0.5, 0.5]] * 2,
                         [[0.5, 0.5], [0.5]]), "entries of b must be real numbers"),
    (lambda: MarginalTable((1, 2), [["a", 1.0]]), "cells must be real numbers"),
    (lambda: JointTable(Shape(2, 2, 2), [[["0.5", 0.5]] * 2] * 2),
     "cells must be real numbers"),
    (lambda: JointTable.from_flat(Shape(2, 2, 2), ["a"] + [0.125] * 7),
     "cells must be real numbers"),
    (lambda: MixingMatrix([["a", 1.0], [0.0, 1.0]]),
     "entries of q must be real numbers"),
    (lambda: MixingMatrix([[1.0 + 0.5j, 0.0], [0.0, 1.0]]),
     "entries of q must be real numbers"),
    (lambda: LambdaField(Shape(2, 2, 2), [[["a", 0.5]] * 2] * 2),
     "lambda values must be real numbers"),
    (lambda: LambdaField(Shape(2, 2, 2), [[["0.5", "0.5"]] * 2] * 2),
     "lambda values must be real numbers"),
    (lambda: CrossRatios((3, 3), (0, 0), [["2", 1.0], [1.0, 1.0]]),
     "cross-ratios must be real numbers"),
    (lambda: ProfileTrace(["0", 1.0], [0.0, 0.0], [0.1, 0.1], None, None),
     "trace entries must be real numbers"),
    (lambda: ProfileTrace([0.0, 1.0], [0.0, "x"], [0.1, 0.1], None, None),
     "trace entries must be real numbers"),
], ids=["a-string", "b-ragged", "marginal-string", "joint-numeric-string",
        "flat-string", "q-string", "q-complex", "lambda-string",
        "lambda-numeric-string", "cross-ratio-numeric-string",
        "trace-numeric-string", "trace-string"])
def test_entries_that_are_not_real_numbers_are_invalid(build, message):
    # numpy would parse "0.5", drop an imaginary part or raise its own
    # ValueError; the value types refuse each with one message
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: ChainParams(Shape(5, 2, 2), [2 ** 62] * 4 + [1], [[1, 0]] * 5,
                         [[1, 0], [0, 1]]),
     "row 0 of p1 sums to 1.8446744073709552e+19, not 1"),
    (lambda: MixingMatrix([[2 ** 62, 2 ** 62, 1 - 2 ** 63], [1, 0, 0],
                           [0, 0, 1]]), "row 0 of q sums to 0.0, not 1"),
], ids=["p1", "q"])
def test_integer_entries_are_checked_as_floats(build, message):
    # in int64 these rows sum to 1, as the sums wrap at 2**63
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        build()


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
    # the computed tables too: float64, read-only and owning their cells
    params = seeded_chain((2, 2, 2), 0)
    joint = joint_from_chain(params)
    marginal, lambdas = split(joint)
    for values in (params.a, joint.cells, marginal_13(joint).cells,
                   merge(marginal, lambdas).cells):
        assert values.dtype == np.float64 and values.flags.owndata
        with pytest.raises(ValueError):
            values[(0,) * values.ndim] = 0.5


#: a row that passes SUM_TOL with most of it to spare
EDGE_ROW = [0.5, 0.5 + 0.9e-12]


def test_tables_of_checked_rows_are_not_checked_again():
    # every row of this chain sums to 1 within SUM_TOL, and its joint, their
    # product, to 1 + 2.7e-12: a table of checked rows is accepted
    params = ChainParams(Shape(2, 2, 2), EDGE_ROW, [EDGE_ROW] * 2,
                         [EDGE_ROW] * 2)
    joint = joint_from_chain(params)
    assert abs(joint.cells.sum() - 1.0) > 2 * SUM_TOL
    assert np.array_equal(
        joint.cells, np.einsum("i,ij,jk->ijk", params.p1, params.a, params.b))
    counts = CountTable((2, 2), [[3, 1], [2, 4]])
    assert loglik(counts, params) == pytest.approx(10 * np.log(0.25))


def test_merge_accepts_checked_factors_at_the_sum_edge():
    marginal = MarginalTable((2, 2), [[0.25, 0.25], [0.25, 0.25 + 0.9e-12]])
    lambdas = LambdaField(Shape(2, 2, 2), np.array([[EDGE_ROW] * 2] * 2))
    joint = merge(marginal, lambdas)
    assert abs(joint.cells.sum() - 1.0) > SUM_TOL
    assert np.array_equal(joint.cells, (marginal.cells[:, :, None]
                                        * lambdas.values).transpose(0, 2, 1))


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


@pytest.mark.parametrize("ref_cell", [(0.9, 1.5), (0, 1.0), (True, 0), "01",
                                      (0, 0, 0), 0])
def test_ci_residuals_ref_cell_is_an_integer_pair(ref_cell):
    # not read by int(): (0.9, 1.5) would be the reference cell (0, 1)
    joint = joint_from_chain(seeded_chain((3, 2, 3), 1))
    with pytest.raises(InvalidParameter, match="reference cell must be two integers"):
        ci_residuals(joint, ref_cell)
    assert np.array_equal(ci_residuals(joint, (np.int64(1), np.int32(2))),
                          ci_residuals(joint, (1, 2)))


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
        if block == "p1" and eps == 2e-9:
            # with a p1 entry of 2e-9 the central differences read rounding
            # as rank loss (4, 8 and 18 at these seeds); the left inverse
            # proves the rank is t
            assert jacobian_rank(params) == dims(Shape(*shape)).t
        else:
            assert jacobian_rank(params) == fd_cell_jacobian_rank(params)


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3)])
def test_left_inverse_undoes_the_parametrisation_in_sympy(shape):
    # g(theta) = (theta(i, +, +), theta(i, j, +) / theta(i, +, +),
    # theta(+, j, k) / theta(+, j, +)) on the chart coordinates: g o f = id,
    # so Dg Df = I_t and the rank of Df is t
    sympy = pytest.importorskip("sympy")
    r1, r2, r3 = shape
    t = dims(Shape(*shape)).t
    x = sympy.symbols(f"x0:{t}")

    def simplex_rows(coords, nrows, n):
        rows = [list(coords[r * (n - 1):(r + 1) * (n - 1)]) for r in range(nrows)]
        return [row + [1 - sum(row)] for row in rows]

    n1, na = r1 - 1, r1 * (r2 - 1)
    (p1,) = simplex_rows(x[:n1], 1, r1)
    a = simplex_rows(x[n1:n1 + na], r1, r2)
    b = simplex_rows(x[n1 + na:], r2, r3)
    theta = [[[p1[i] * a[i][j] * b[j][k] for k in range(r3)] for j in range(r2)]
             for i in range(r1)]
    u = [[sum(theta[i][j]) for j in range(r2)] for i in range(r1)]
    v = [[sum(theta[i][j][k] for i in range(r1)) for k in range(r3)]
         for j in range(r2)]
    g = ([sum(u[i]) for i in range(r1 - 1)]
         + [u[i][j] / sum(u[i]) for i in range(r1) for j in range(r2 - 1)]
         + [v[j][k] / sum(v[j]) for j in range(r2) for k in range(r3 - 1)])
    composed = sympy.Matrix([sympy.cancel(expr) for expr in g])
    assert composed == sympy.Matrix(x)
    assert composed.jacobian(x) == sympy.eye(t)


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
    "CountTable", "CrossRatios", "Dims", "DimsCase", "EmFit", "ExtremeMixing",
    "GeometryError", "InvalidMixing", "InvalidParameter", "JointTable",
    "LambdaField", "MarginalTable", "MixingMatrix", "NoRealSolution",
    "OffVariety", "OutOfUnitBox", "PathExitsPolytope", "ProfileTrace",
    "RhoPiBounds", "Shape", "SingularDenominator",
    "SingularMixing", "ZeroCell", "apply_mixing", "binary_fiber_solve",
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


def _pair_chain(a, b):
    return ChainParams(Shape(2, 2, 2), [0.5, 0.5], a, b)


#: a raise site of each message that the merged error classes, and those
#: without attributes, no longer build themselves, with its exact text
MERGED_RAISES = {
    "lower-window": (
        lambda lg: lg.binary_surface(0.6, 0.8, 0.5), "OutOfUnitBox",
        "constraint violated: lam22 > lam12 requires z > lam12/lam22 "
        "(z = 0.5, lam12/lam22 = 0.74999999999999989)"),
    "upper-window": (
        lambda lg: lg.binary_surface(0.2, 0.8, 5.0), "OutOfUnitBox",
        "constraint violated: lam22 > lam12 requires "
        "z < (1 - lam12)/(1 - lam22) (z = 5)"),
    "mirrored-upper-window": (
        lambda lg: lg.binary_surface(0.8, 0.2, 5.0), "OutOfUnitBox",
        "constraint violated: lam22 < lam12 requires z < lam12/lam22 "
        "(z = 5, lam12/lam22 = 4)"),
    "mirrored-lower-window": (
        lambda lg: lg.binary_surface(0.8, 0.2, 0.2), "OutOfUnitBox",
        "constraint violated: lam22 < lam12 requires "
        "z > (1 - lam12)/(1 - lam22) (z = 0.20000000000000001)"),
    "equal-pair": (
        lambda lg: lg.binary_surface(0.4, 0.4, 1.3), "SingularDenominator",
        "lam22 = lam12 = 0.40000000000000002 with z = 1.3 != 1"),
    "a-on-boundary": (
        lambda lg: lg.extreme_mixings(_pair_chain(
            [[0.0, 1.0], [0.6, 0.4]], [[0.3, 0.7], [0.8, 0.2]])),
        "BoundaryPoint",
        "p(Y2|Y1) already touches the boundary; no extreme vertex"),
    "a-pinched": (
        lambda lg: lg.extreme_mixings(_pair_chain(
            [[0.4, 0.6], [0.4, 0.6]], [[0.3, 0.7], [0.8, 0.2]])),
        "BoundaryPoint",
        "constant p(Y2 = 1|Y1): the validity rectangle pinches to a segment "
        "and the informative corner is singular"),
    "b-not-interior": (
        lambda lg: lg.extreme_mixings(_pair_chain(
            [[0.4, 0.6], [0.7, 0.3]], [[0.0, 1.0], [0.8, 0.2]]), side="b"),
        "BoundaryPoint", "b-side construction requires interior parameters"),
    "b-no-straddle": (
        lambda lg: lg.extreme_mixings(_pair_chain(
            [[0.4, 0.6], [0.7, 0.3]], [[0.3, 0.7], [0.3, 0.7]]), side="b"),
        "BoundaryPoint",
        "rows of p(Y3|Y2) do not straddle; no boundary mixing exists"),
    "negative-discriminant": (
        lambda lg: lg.binary_fiber_solve(0.5, 0.5, 0.5), "NoRealSolution",
        "negative discriminant -1: no real solution"),
    "root-outside": (
        lambda lg: lg.binary_fiber_solve(0.1, 0.9, 0.9), "OutOfUnitBox",
        "smaller root = 1.0143149884133249 lies outside [0, 1] "
        "(roots (1.014314988413325, 7.985685011586675))"),
    "solved-outside": (
        lambda lg: lg.solve_fiber_323(lg.CrossRatios((3, 3), (0, 0), [
            [4 / 3, 68 / 33], [12 / 7, 36 / 11]]), 0.2, 0.35),
        "OutOfUnitBox", "lam(1,1) = -0.066666666666666666 lies outside [0, 1]"),
    "scaled-outside": (
        lambda lg: lg.degenerate_family_323(lg.CrossRatios(
            (3, 3), (0, 0), [[0.5, 2.0], [1.5, 0.8]]), 0.9, 0.3),
        "OutOfUnitBox", "lam(2,2) = 1.8 lies outside [0, 1]"),
    "named-denominator": (
        lambda lg: lg.solve_fiber_323(lg.CrossRatios((3, 3), (0, 0), [
            [4 / 3, 68 / 33], [12 / 7, 36 / 11]]), 0.4, 0.4),
        "SingularDenominator",
        "denominator z1 (lam(2,2) - lam(2,1)) = 0 is too close to zero"),
    "identity": (
        lambda lg: lg.solve_fiber_323(lg.CrossRatios(
            (3, 3), (0, 0), [[2.0, 1.0], [1.0, 2.0]]), 0.3, 0.5),
        "OffVariety", "marginal identity residual 1 exceeds tolerance 2e-08"),
}


@pytest.mark.parametrize("site", sorted(MERGED_RAISES))
def test_merged_errors_keep_their_messages(site):
    import latentgeom
    call, name, message = MERGED_RAISES[site]
    with pytest.raises(getattr(latentgeom, name)) as err:
        call(latentgeom)
    assert type(err.value) is getattr(latentgeom, name)
    assert str(err.value) == message
