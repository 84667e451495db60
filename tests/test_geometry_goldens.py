"""Bitwise goldens of the geometry calls over the shape ladder.

Each digest is the sha256 of the bytes of every output array, in a fixed
order, recorded before the fiber and reparam layers lost their per-call
machinery, and for the forward map, the CI residuals, the 3x3x2 solver and
the extreme mixings before those lost theirs.  A change of one bit in a
fiber point, a mixed chain, a lambda field, a cross-ratio table, a joint or
marginal table or its strides fails here by shape and call; the CLI
goldens of ``test_cli.py`` reach only 3x2x3 and 4x3x4.  Every array field
the geometry builders return is C-contiguous, so C order and its shape
fix its strides.
"""

import hashlib

import numpy as np
import pytest

from latentgeom import (
    ChainParams,
    CountTable,
    CrossRatios,
    JointTable,
    MixingMatrix,
    Shape,
    apply_mixing,
    ci_residuals,
    consistency_check,
    cross_ratios,
    degenerate_family_323,
    em_fit_details,
    extreme_mixings,
    joint_from_chain,
    marginal_13,
    merge,
    quadric_residuals_323,
    sample_fiber,
    solve_fiber_323,
    split,
)
from conftest import seeded_chain, seeded_joint

SHAPES = [(3, 2, 3), (5, 2, 5), (10, 3, 10), (30, 5, 30), (6, 4, 3), (2, 3, 5)]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def _strides(x):
    return np.array(x.strides, dtype=np.int64)


def _chain(shape):
    return seeded_chain(shape, 3200 + sum(shape), floor=1e-4)


def sample_fiber_outputs(shape):
    params = _chain(shape)
    # equal rows of b leave chords that only the cut at 1 / DET_EPS bounds
    flat_b = ChainParams(params.shape, params.p1, params.a,
                         np.tile(params.b[0], (shape[1], 1)))
    for chain, n, seed in ((params, 1, 5), (params, 10, 7), (flat_b, 10, 9)):
        for point in sample_fiber(chain, n, seed=seed):
            yield from (point.a, point.b)


def apply_mixing_outputs(shape):
    params = _chain(shape)
    r2 = shape[1]
    if r2 == 2:
        qs = [vertex.q for side in "ab" for vertex in extreme_mixings(params, side)]
    else:
        rng = np.random.default_rng(sum(shape))
        m = rng.standard_normal((r2, r2))
        m -= m.mean(axis=1, keepdims=True)
        scale = 0.1 * params.min_entry / (r2 * np.abs(m).max())
        qs = [MixingMatrix(np.eye(r2) + scale * m),
              MixingMatrix(np.eye(r2) - 0.5 * scale * m)]
    for q in qs:
        moved = apply_mixing(params, q)
        yield from (moved.a, moved.b)


def split_outputs(shape):
    r1, _, r3 = shape
    for joint in (joint_from_chain(_chain(shape)), seeded_joint(shape, sum(shape))):
        marginal, lambdas = split(joint)
        yield from (marginal.cells, lambdas.values, lambdas.unconstrained)
        for ref in ((0, 0), (r1 - 1, r3 - 1)):
            yield cross_ratios(marginal, ref).values
    # a zero marginal cell leaves its slice uniform and flagged
    cells = seeded_joint(shape, sum(shape)).cells.copy()
    cells[0, :, 0] = 0.0
    marginal, lambdas = split(JointTable(Shape(*shape), cells / cells.sum()))
    yield from (marginal.cells, lambdas.values, lambdas.unconstrained)


def joint_from_chain_outputs(shape):
    joint = joint_from_chain(_chain(shape))
    yield from (joint.cells, _strides(joint.cells))
    for table in (joint, seeded_joint(shape, sum(shape))):
        marginal = marginal_13(table)
        yield from (marginal.cells, _strides(marginal.cells))


def ci_residuals_outputs(shape):
    r1, _, r3 = shape
    refs = [(0, 0), (r1 - 1, r3 - 1)] + ([(1, 1)] if min(r1, r3) >= 3 else [])
    for joint in (joint_from_chain(_chain(shape)), seeded_joint(shape, sum(shape))):
        for ref in refs:
            yield ci_residuals(joint, ref)


OUTPUTS = {"sample_fiber": sample_fiber_outputs,
           "apply_mixing": apply_mixing_outputs,
           "split": split_outputs,
           "joint_from_chain": joint_from_chain_outputs,
           "ci_residuals": ci_residuals_outputs}


def solve_fiber_323_outputs(shape):
    # the solved field at the true free values, the constant field of the
    # independent marginal, and the frame's other readers, at two cells
    marginal, lambdas = split(joint_from_chain(_chain(shape)))
    first = lambdas.values[:, :, 0]
    for ref in ((0, 0), (1, 2)):
        z = cross_ratios(marginal, ref)
        i, k, k2 = z.rows[0], ref[1], z.cols[0]
        fields = [solve_fiber_323(z, float(first[i, k]), float(first[i, k2])),
                  solve_fiber_323(CrossRatios((3, 3), ref, np.ones((2, 2))), 0.4, 0.4)]
        fields += [degenerate_family_323(z, 0.01, 0.02, branch)
                   for branch in ("ones", "zeros")]
        for field in fields:
            yield from (field.values, field.unconstrained, _strides(field.values),
                        _strides(field.unconstrained), quadric_residuals_323(z, field))


def extreme_mixings_outputs(shape):
    for params in (_chain(shape), seeded_chain(shape, sum(shape))):
        for side in "ab":
            for vertex in extreme_mixings(params, side):
                yield from (vertex.q.q, _strides(vertex.q.q), np.frombuffer(
                    repr((vertex.branch, vertex.zeros)).encode(), np.uint8))


#: outputs defined at some shapes of the ladder only
CLOSED_FORMS = {"solve_fiber_323": (solve_fiber_323_outputs, [(3, 2, 3)]),
                "extreme_mixings": (extreme_mixings_outputs, [(3, 2, 3), (5, 2, 5)])}

DIGESTS = {
    ("apply_mixing", (3, 2, 3)):
        "3b94f084ce3a70aa245ef67aa15a5e667106b6f79496bca67fa384749bdfb285",
    ("apply_mixing", (5, 2, 5)):
        "d0d674fc3c80f6aaccb7aad614d6e97e292d03419a0f178a6a70d5c150047a21",
    ("apply_mixing", (10, 3, 10)):
        "d3fce37a51c7bf3dce172589a413206116ef92d46520e535f8de097c860d86a9",
    ("apply_mixing", (30, 5, 30)):
        "8b5e2003b269c27812246ec9d25cfd89038a7039f7b7c1481d5c362dd98ebb38",
    ("apply_mixing", (6, 4, 3)):
        "808005ec05688a318948b58b4105fb23aa6a6a8455137540f1b5f605add3775b",
    ("apply_mixing", (2, 3, 5)):
        "2f5d7937a0d84dae74e313f6668695755e15f3ef0d85adb3fe1be876233d1cfc",
    ("sample_fiber", (3, 2, 3)):
        "a6a854365134ea933648f5292e3fa9a8125e476370ae30c9e2b766814994009b",
    ("sample_fiber", (5, 2, 5)):
        "2b17cdea92c0f139a1b68fbe439c7080892e47e78ff847fa74c6a98f2792511d",
    ("sample_fiber", (10, 3, 10)):
        "cfe16cfd49644dddc50fa62ce7e02fd0f6dc44d08cf491f56d442d5d0c41d0e1",
    ("sample_fiber", (30, 5, 30)):
        "39be06c629767857514b5e1c962f715f2d43a006633bac18c9be98f996f3ff47",
    ("sample_fiber", (6, 4, 3)):
        "0366285519e2546190119dc6c37743b2b7045be82b6601d4a43381d4488b8068",
    ("sample_fiber", (2, 3, 5)):
        "498a1d7d6ecfc0584b8353eb9329b1cb5c5c4d8870c873278f5b723745f9529c",
    ("split", (3, 2, 3)):
        "5483d7eb1a694332661ec6334ef7c6883d8cb30827245ff16ba30f323759fbf3",
    ("split", (5, 2, 5)):
        "f2e8a6415e2aa803cfc27dae1862dce4a3f7f6300353dfbeae36fa619a5f0d3a",
    ("split", (10, 3, 10)):
        "f6ea92910d14c8edb4e1bfe412db0bf413909daa6f99ec2dd265ec9691f8193f",
    ("split", (30, 5, 30)):
        "0864541d0b660083e8edbc25f897a3eba6b9cfae3f7990ae24c51fde6e9f6a11",
    ("split", (6, 4, 3)):
        "0cf529afbc970835b4ce3eb5af30f41c3ab36c2c3eeb91d3ae9a3e1d35920ecf",
    ("split", (2, 3, 5)):
        "ab56f3c7afdd092a71f8b5e64d38cee92bee313ceb5cf64b2c251076c3608c51",
    ("ci_residuals", (3, 2, 3)):
        "29452fc0c30818000f85fa79bb4c6f2f7f8262cf60cd5d3c4b54d8dfe127bca3",
    ("ci_residuals", (5, 2, 5)):
        "689bd2d43198d85b1cf74a4ff26caac214d782dd845577c539cd19e41f2382db",
    ("ci_residuals", (10, 3, 10)):
        "e0fe453b0db201dd9748668cd8e3f6470030804c7528321932864685a97d0a4c",
    ("ci_residuals", (30, 5, 30)):
        "54ebd3cd51ff4366f63ed73c82d2add9a0c643099d9e53d2a75e9eb8b6d24eb0",
    ("ci_residuals", (6, 4, 3)):
        "b105ed3452065ac6058af4293e95e1aa23b724411d28d18e14c930d941d6bdb2",
    ("ci_residuals", (2, 3, 5)):
        "87e2229cfb9c8a41d718fcc495ed7fb06c2d7720c2f0932c0e0aeada584d194c",
    ("joint_from_chain", (3, 2, 3)):
        "18cc743c51583f24603246da99e4ce3828ccece119b92a3cb962f96c92a3dadb",
    ("joint_from_chain", (5, 2, 5)):
        "5218186732f48d752833c4ea06eb993e6e041158cb654cc5a03e650ca99eba96",
    ("joint_from_chain", (10, 3, 10)):
        "22813007fce09de92c10263b7917899218b3f268b7590a454fb5b22153c64ac3",
    ("joint_from_chain", (30, 5, 30)):
        "03f91139edee89ab5429b1feb9a5bd78743ccf658155516eb3366683361446a8",
    ("joint_from_chain", (6, 4, 3)):
        "74b08e5dae801c4523058f04618c4d051a28a77e42c03e5d1f23e694d88f75ea",
    ("joint_from_chain", (2, 3, 5)):
        "8704556784c2632c2f52dbd446af5372d2e1259989cd4f5c938f93b784920c5b",
    ("extreme_mixings", (3, 2, 3)):
        "79224e033bd1f5129e6f140ab1d6b5e5ebee13facbf16ab1af90b2591cb65082",
    ("extreme_mixings", (5, 2, 5)):
        "cb2056ad0f580791b1f182d540f9fe52c76d1169809ed1751e9834f5c996bc8e",
    ("solve_fiber_323", (3, 2, 3)):
        "cb3b1ae6359290dedc258711107691e5d970adabc36d55134e2ba08fa7e315ce",
}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("call", sorted(OUTPUTS))
def test_geometry_outputs_are_bitwise_pinned(call, shape):
    assert _digest(OUTPUTS[call](shape)) == DIGESTS[call, shape]


@pytest.mark.parametrize("call, shape", [
    (call, shape) for call, (_, shapes) in sorted(CLOSED_FORMS.items())
    for shape in shapes], ids=lambda x: "x".join(map(str, x)) if isinstance(x, tuple) else x)
def test_closed_form_outputs_are_bitwise_pinned(call, shape):
    assert _digest(CLOSED_FORMS[call][0](shape)) == DIGESTS[call, shape]


def built_values(shape):
    """The values the geometry builders return at ``shape``: the forward
    map, value types built from Fortran-ordered arrays, split and merge,
    cross-ratios, the mixings, an EM fit and a consistency witness, and at
    3x2x3 the solvers and their merges."""
    r1, r2, r3 = shape
    params = _chain(shape)
    joint = joint_from_chain(params)
    yield params, joint
    # value types given Fortran-ordered arrays store them in C order
    yield (JointTable(Shape(*shape), np.asfortranarray(joint.cells)),
           ChainParams(params.shape, params.p1, *map(np.asfortranarray, (params.a, params.b))))
    for table in (joint, seeded_joint(shape, sum(shape))):
        marginal, lambdas = split(table)
        yield marginal_13(table), marginal, lambdas, merge(marginal, lambdas)
        yield [cross_ratios(marginal, ref) for ref in ((0, 0), (r1 - 1, r3 - 1), (r1 // 2, 0))]
    yield list(apply_mixing_outputs(shape)), sample_fiber(params, 3, seed=1)
    if r2 == 2:
        yield [vertex.q for side in "ab" for vertex in extreme_mixings(params, side)]
    if shape == (3, 2, 3):
        z = cross_ratios(marginal_13(joint))
        first = split(joint)[1].values[:, :, 0]
        fields = [solve_fiber_323(z, float(first[1, 0]), float(first[1, 1])),
                  degenerate_family_323(z, 0.01, 0.02)]
        yield fields, [merge(marginal_13(joint), field) for field in fields]
    counts = CountTable((r1, r3), np.rint(1000 * marginal_13(joint).cells).astype(int) + 1)
    yield em_fit_details(counts, Shape(*shape), maxiter=5).params
    # an exact witness, and where r2 < min(r1, r3) the search's on a generic table
    target = marginal_13(seeded_joint(shape, sum(shape)))
    yield [consistency_check(marginal, r2, restarts=2, maxiter=5, tol=tol).witness
           for marginal, tol in ((marginal_13(joint), 1e-8), (target, 1.0))]


def arrays(value):
    """Every array in ``value``: itself, or the fields of a value type, or
    the members of a list or tuple."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for member in value:
            yield from arrays(member)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            yield from arrays(getattr(value, name))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_geometry_outputs_are_c_contiguous(shape):
    found = list(arrays(list(built_values(shape))))
    assert len(found) > 20
    assert [x.strides for x in found if not x.flags.c_contiguous] == []
