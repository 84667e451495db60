"""Values built without their checks equal the checked ones.

Each construction site listed in ``test_source.UNCHECKED`` builds a value
through ``_checked`` on a proof that the checks would pass.  Run once as
it is and once with ``_checked`` replaced by the checking constructor, a
call must give the same value: the same field bits, dtype and strides,
frozen arrays, and ``==``; or the same error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentgeom import (
    ChainParams,
    CountTable,
    CrossRatios,
    GeometryError,
    InvalidParameter,
    JointTable,
    LambdaField,
    MarginalTable,
    MixingMatrix,
    Shape,
    consistency_check,
    cross_ratios,
    em_fit_details,
    extreme_mixings,
    joint_from_chain,
    random_chain,
    solve_fiber_323,
    split,
)

SEEDS = st.integers(0, 2 ** 32 - 1)


def outcome(call, *args):
    try:
        return call(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


def both(cls, call, *args):
    """What ``call(*args)`` gives as it is, and with ``cls._checked`` run
    by the checking constructor."""
    fast = outcome(call, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_checked", classmethod(lambda c, *values: c(*values)))
        slow = outcome(call, *args)
    return fast, slow


def assert_same_value(fast, slow):
    assert type(fast) is type(slow)
    if isinstance(fast, tuple):     # an error, or a pair of values
        assert len(fast) == len(slow)
        for x, y in zip(fast, slow):
            assert_same_value(x, y)
        return
    if not hasattr(fast, "__dataclass_fields__"):
        assert fast == slow
        return
    assert fast == slow
    for name in fast.__dataclass_fields__:
        x, y = getattr(fast, name), getattr(slow, name)
        if isinstance(y, np.ndarray):
            assert (x.dtype, x.shape, x.strides) == (y.dtype, y.shape, y.strides)
            assert x.tobytes() == y.tobytes()
            assert not (x.flags.writeable or y.flags.writeable)
        else:
            assert_same_value(x, y)


@settings(max_examples=60, deadline=None)
@given(r1=st.integers(2, 6), r2=st.integers(2, 5), r3=st.integers(2, 6),
       seed=SEEDS, zeros=st.integers(0, 3), zero_cell=st.booleans(),
       negative=st.booleans())
def test_split_equals_the_checked_field(r1, r2, r3, seed, zeros, zero_cell, negative):
    # zero marginal cells leave uniform slices, a zero cell a zero entry,
    # and -0.0 cells -0.0 entries
    rng = np.random.default_rng(seed)
    cells = rng.dirichlet(np.ones(r1 * r2 * r3)).reshape(r1, r2, r3)
    for _ in range(zeros):
        cells[rng.integers(r1), :, rng.integers(r3)] = 0.0
    if zero_cell:
        cells[rng.integers(r1), rng.integers(r2), rng.integers(r3)] = 0.0
    cells /= cells.sum()
    if negative:
        cells[cells == 0.0] = -0.0
    joint = JointTable(Shape(r1, r2, r3), cells)
    fast, slow = both(LambdaField, split, joint)
    assert_same_value(fast, slow)


@settings(max_examples=40, deadline=None)
@given(r1=st.integers(2, 6), r3=st.integers(2, 6), seed=SEEDS,
       scale=st.sampled_from([1.0, 1e-3, 1e-200]))
def test_cross_ratios_equal_the_checked_table_at_every_cell(r1, r3, seed, scale):
    # at 1e-200 a product of the two scaled cells underflows to 0, a
    # numerator or a divisor, which both refuse alike
    rng = np.random.default_rng(seed)
    cells = rng.dirichlet(np.ones(r1 * r3)).reshape(r1, r3)
    cells[0, 0] *= scale
    cells[-1, -1] *= scale
    marginal = MarginalTable((r1, r3), cells / cells.sum())
    for ref in np.ndindex(r1, r3):
        fast, slow = both(CrossRatios, cross_ratios, marginal, ref)
        assert_same_value(fast, slow)


@settings(max_examples=40, deadline=None)
@given(r1=st.integers(2, 6), r3=st.integers(2, 6), seed=SEEDS,
       floor=st.sampled_from([0.0, 1e-3]))
def test_extreme_mixings_equal_the_checked_corners(r1, r3, seed, floor):
    params = random_chain(Shape(r1, 2, r3), np.random.default_rng(seed), floor)
    for side in "ab":
        fast, slow = both(MixingMatrix, extreme_mixings, params, side)
        if isinstance(fast, list):
            fast = tuple((v.q, v.branch, v.zeros) for v in fast)
            slow = tuple((v.q, v.branch, v.zeros) for v in slow)
        assert_same_value(fast, slow)


def test_a_near_singular_corner_is_refused_alike():
    params = ChainParams(Shape(2, 2, 2), [0.5, 0.5],
                         [[0.5, 0.5], [0.5 + 2 ** -44, 0.5 - 2 ** -44]],
                         [[0.3, 0.7], [0.6, 0.4]])
    fast, slow = both(MixingMatrix, extreme_mixings, params, "a")
    assert fast[0].__name__ == "SingularMixing"
    assert_same_value(fast, slow)


def test_b_side_row_sum_rounded_off_one_is_refused():
    # u_lo = -(2**20 - 2**-33), within 1 below 2**20: 1 - u_lo rounds, and
    # row 1 of q sums to 1 - 2**-33
    d = (2 ** 32 + 33) * 2.0 ** -53
    params = ChainParams(Shape(2, 2, 2), [0.5, 0.5], [[0.3, 0.7], [0.6, 0.4]],
                         [[0.5 - d, 0.5 + d], [0.5, 0.5]])
    with pytest.raises(InvalidParameter) as err:
        extreme_mixings(params, "b")
    assert str(err.value) == "row 1 of q sums to 0.9999999998835847, not 1"


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, ref=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       jitter=st.sampled_from([0.0, 1e-3, 0.3]))
def test_solve_fiber_323_equals_the_checked_field(seed, ref, jitter):
    params = random_chain(Shape(3, 2, 3), np.random.default_rng(seed), 1e-3)
    marginal, lambdas = split(joint_from_chain(params))
    z = cross_ratios(marginal, ref)
    first = lambdas.values[:, :, 0]
    free = (float(first[z.rows[0], ref[1]]),
            min(float(first[z.rows[0], z.cols[0]]) + jitter, 1.0))
    for args in ((z, *free), (CrossRatios((3, 3), ref, np.ones((2, 2))), free[0], free[0])):
        fast, slow = both(LambdaField, solve_fiber_323, *args)
        assert_same_value(fast, slow)


@settings(max_examples=15, deadline=None)
@given(r1=st.integers(2, 5), r2=st.integers(2, 3), r3=st.integers(2, 5),
       seed=SEEDS, zeros=st.booleans(), tol=st.sampled_from([1e-8, 1e-2, 1.0]))
def test_consistency_witness_equals_the_checked_chain(r1, r2, r3, seed, zeros, tol):
    # exact witnesses, and at a loose tol the search's best restart
    rng = np.random.default_rng(seed)
    cells = rng.dirichlet(np.ones(r1 * r3)).reshape(r1, r3)
    if zeros:
        cells[rng.integers(r1), :] = 0.0
    target = MarginalTable((r1, r3), cells / cells.sum())
    fast, slow = both(ChainParams, consistency_check, target, r2, 3, tol,
                      seed % 1000, 20)
    assert_same_value(fast, slow)


@settings(max_examples=15, deadline=None)
@given(r1=st.integers(2, 5), r2=st.integers(2, 3), r3=st.integers(2, 5),
       seed=SEEDS, zeros=st.booleans())
def test_em_fit_params_equal_the_checked_chain(r1, r2, r3, seed, zeros):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0 if zeros else 1, 20, (r1, r3))
    counts[0, 0] += 1
    fast, slow = both(ChainParams, em_fit_details, CountTable((r1, r3), counts),
                      Shape(r1, r2, r3), seed % 1000, 20)
    if not isinstance(fast, tuple):
        fast, slow = fast.params, slow.params
    assert_same_value(fast, slow)
