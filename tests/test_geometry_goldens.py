"""Bitwise goldens of the geometry calls over the shape ladder.

Each digest is the sha256 of the bytes of every output array, in a fixed
order, recorded before the fiber and reparam layers lost their per-call
machinery.  A change of one bit in a fiber point, a mixed chain, a lambda
field or a cross-ratio table fails here by shape and call; the CLI goldens
of ``test_cli.py`` reach only 3x2x3 and 4x3x4.
"""

import hashlib

import numpy as np
import pytest

from latentgeom import (
    ChainParams,
    JointTable,
    MixingMatrix,
    Shape,
    apply_mixing,
    cross_ratios,
    extreme_mixings,
    joint_from_chain,
    sample_fiber,
    split,
)
from conftest import seeded_chain, seeded_joint

SHAPES = [(3, 2, 3), (5, 2, 5), (10, 3, 10), (30, 5, 30), (6, 4, 3), (2, 3, 5)]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


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


OUTPUTS = {"sample_fiber": sample_fiber_outputs,
           "apply_mixing": apply_mixing_outputs,
           "split": split_outputs}

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
}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("call", sorted(OUTPUTS))
def test_geometry_outputs_are_bitwise_pinned(call, shape):
    assert _digest(OUTPUTS[call](shape)) == DIGESTS[call, shape]
