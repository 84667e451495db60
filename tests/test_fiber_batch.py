"""The stacked mixing kernel against the serial fiber walks it replaced.

``serial_sample_fiber`` proposes one attempt at a time and
``serial_profile_along_fiber`` evaluates one step at a time, both with the
serial ``apply_mixing`` arithmetic (a determinant, then the analytic inverse
for r2 = 2 or one ``solve``, then the clamp).  The library's stacked walks
must match them bit for bit: the same points, the same trace, the same
prefix and ``exit_t``, the same warnings and the same errors.
"""

import warnings

import numpy as np
import pytest

from latentgeom import (
    ChainParams,
    CountTable,
    InvalidMixing,
    InvalidParameter,
    MixingMatrix,
    PathExitsPolytope,
    RejectionStall,
    Shape,
    SingularMixing,
    apply_mixing,
    extreme_mixings,
    loglik,
    profile_along_fiber,
    random_chain,
    sample_fiber,
)
from latentgeom import fiber
from latentgeom.fiber import CLAMP_EPS, DET_EPS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SEEDS = st.integers(0, 2 ** 32 - 1)


# ------------------------------------------------------------ serial references

def serial_clamp_rows(name, rows):
    worst = float(rows.min())
    if worst < -CLAMP_EPS:
        idx = tuple(int(x) for x in np.argwhere(rows == rows.min())[0])
        raise InvalidMixing(name, idx, worst)
    out = rows.copy()
    # every entry the test above accepts, -CLAMP_EPS included, snaps to 0
    out[(out >= -CLAMP_EPS) & (out < 0.0)] = 0.0
    out[out == 0.0] = 0.0
    return out / out.sum(axis=1, keepdims=True)


def serial_apply_mixing(params, q):
    r2 = params.shape.r2
    det = q.det
    if abs(det) <= DET_EPS:
        raise SingularMixing(f"|det q| = {abs(det):.3e} <= {DET_EPS}")
    if r2 == 2:
        pi = float(q.q[0, 0])
        rho = float(q.q[1, 0])
        col = params.a[:, 0]
        a_new = np.column_stack([(col - rho) / (pi - rho),
                                 (pi - col) / (pi - rho)])
    else:
        a_new = np.linalg.solve(q.q.T, params.a.T).T
    b_new = q.q @ params.b
    return ChainParams(params.shape, params.p1, serial_clamp_rows("a", a_new),
                       serial_clamp_rows("b", b_new))


def serial_sample_fiber(params, n, seed=0, steps_seen=None):
    """One attempt at a time; ``steps_seen`` collects every step size t."""
    r2 = params.shape.r2
    rng = np.random.default_rng(seed)
    eye = np.eye(r2)
    out = []
    t = 0.5
    cap = max(200, 100 * n)
    attempts = 0
    while len(out) < n and attempts < cap:
        attempts += 1
        if steps_seen is not None:
            steps_seen.append(t)
        m = rng.standard_normal((r2, r2))
        m -= m.mean(axis=1, keepdims=True)
        try:
            q = MixingMatrix(eye + t * m)
            out.append(serial_apply_mixing(params, q))
            t = min(t * 2.0, 4.0)
        except (SingularMixing, InvalidMixing):
            t = max(t * 2.0 ** (-1.0 / 3.0), 1e-8)
    if len(out) < n:
        warnings.warn(RejectionStall(
            f"accepted {len(out)}/{n} fiber points in {attempts} attempts "
            f"({len(out) / attempts:.1%} acceptance)"))
    return out


def serial_profile_along_fiber(counts, params, q_end, steps):
    r2 = params.shape.r2
    if not np.isfinite(loglik(counts, params)):
        raise InvalidParameter("counts lie outside the support of the "
                               "starting model")

    def evaluate(t):
        q = MixingMatrix((1.0 - t) * np.eye(r2) + t * q_end.q)
        moved = serial_apply_mixing(params, q)
        return (loglik(counts, moved),
                float(min(moved.p1.min(), moved.a.min(), moved.b.min())))

    rows = []
    ts = np.linspace(0.0, 1.0, steps)
    for idx, t in enumerate(ts):
        try:
            ll, me = evaluate(float(t))
        except (InvalidMixing, SingularMixing):
            lo = float(ts[idx - 1]) if idx > 0 else 0.0
            hi = float(t)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                try:
                    evaluate(mid)
                    lo = mid
                except (InvalidMixing, SingularMixing):
                    hi = mid
                if hi - lo < 1e-12:
                    break
            raise PathExitsPolytope(rows, lo)
        rows.append((float(t), ll, me))
    return np.array(rows)


# ------------------------------------------------------------ outcomes as bits

def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def sample_outcome(fn, params, n, seed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            points = fn(params, n, seed=seed)
        except InvalidParameter as exc:
            return ("error", str(exc))
    return ([(bits(p.p1), bits(p.a), bits(p.b)) for p in points],
            [(w.category, str(w.message)) for w in caught])


def profile_outcome(fn, counts, params, q_end, steps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = fn(counts, params, q_end, steps)
        except PathExitsPolytope as exc:
            return ("exit", bits(exc.prefix), len(exc.prefix),
                    float(exc.exit_t).hex())
        except InvalidParameter as exc:
            return ("error", str(exc))
    if isinstance(out, np.ndarray):
        return ("trace", bits(out[:, 0]), bits(out[:, 1]), bits(out[:, 2]))
    return ("trace", bits(out.t), bits(out.loglik), bits(out.min_entry))


def near_boundary_chain(shape, rng, floor):
    """A chain with one entry equal to ``floor`` in every row of a and b."""
    params = random_chain(Shape(*shape), rng, min_entry=0.01)

    def pin(rows):
        rows = rows.copy()
        for row in rows:
            j = int(rng.integers(len(row)))
            row[j] = 0.0
            row *= (1.0 - floor) / row.sum()
            row[j] = floor
        return rows

    return ChainParams(params.shape, params.p1, pin(params.a), pin(params.b))


def counts_for(params, rng):
    r1, _, r3 = params.shape.astuple()
    counts = rng.integers(0, 4, size=(r1, r3))
    counts[rng.integers(r1), rng.integers(r3)] += 1
    return CountTable((r1, r3), counts)


def path_end(params, rng, kind):
    """An end matrix for a profile path of the given kind."""
    r2 = params.shape.r2
    eye = np.eye(r2)
    if kind == "vertex" and r2 == 2:
        return extreme_mixings(params)[int(rng.integers(2))].q
    if kind == "exit" and r2 == 2:
        # 1.5 times the way to a vertex leaves the polytope
        q = extreme_mixings(params)[int(rng.integers(2))].q.q
        return MixingMatrix(eye + 1.5 * (q - eye))
    if kind == "singular" and r2 == 2:
        # from pi > rho at t = 0 to pi < rho at t = 1 crosses pi = rho
        pi, rho = rng.uniform(0.0, 0.4), rng.uniform(0.6, 1.0)
        return MixingMatrix.from_pi_rho(pi, rho)
    m = rng.standard_normal((r2, r2))
    m -= m.mean(axis=1, keepdims=True)
    if kind == "interior":
        # |t s M| <= 0.3 min_entry in the max-row-sum norm keeps every q(t)
        # of the path in the polytope
        return MixingMatrix(eye + interior_scale(params, m) * m)
    return MixingMatrix(eye + rng.uniform(0.01, 2.0) * m)


def interior_scale(params, m):
    return 0.3 * params.min_entry / np.abs(m).sum(axis=1).max()


SHAPES = dict(r1=st.integers(2, 8), r2=st.integers(2, 5), r3=st.integers(2, 8))


# ------------------------------------------------------------ sample_fiber

@settings(max_examples=60, deadline=None)
@given(**SHAPES, n=st.integers(0, 60), seed=SEEDS)
def test_sample_fiber_matches_serial(r1, r2, r3, n, seed):
    params = random_chain(Shape(r1, r2, r3), np.random.default_rng(seed),
                          min_entry=1e-3)
    assert (sample_outcome(sample_fiber, params, n, seed)
            == sample_outcome(serial_sample_fiber, params, n, seed))


@settings(max_examples=40, deadline=None)
@given(**SHAPES, n=st.integers(0, 12), seed=SEEDS,
       floor=st.sampled_from([1e-7, 1e-13]))
def test_sample_fiber_near_boundary_matches_serial(r1, r2, r3, n, seed, floor):
    params = near_boundary_chain((r1, r2, r3), np.random.default_rng(seed),
                                 floor)
    assert (sample_outcome(sample_fiber, params, n, seed)
            == sample_outcome(serial_sample_fiber, params, n, seed))


def test_sample_fiber_reaches_step_floor_cap_and_attempt_cap():
    # the schedule's edges: t pinned at its 1e-8 floor by a chain near the
    # boundary, t at its cap of 4 on a chain with identical rows in a and in
    # b (q b = b for every q, so large steps are often accepted), and the
    # attempt cap with a stall
    floor_hit = step_cap_hit = stalled = False
    for seed in range(6):
        rng = np.random.default_rng(seed)
        flat = random_chain(Shape(3, 2, 3), rng, min_entry=0.05)
        flat = ChainParams(flat.shape, flat.p1, np.tile(flat.a[0], (3, 1)),
                           np.tile(flat.b[0], (2, 1)))
        for params in (near_boundary_chain((5, 3, 5), rng, 1e-13), flat):
            seen = []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                serial_sample_fiber(params, 10, seed=seed, steps_seen=seen)
            floor_hit |= 1e-8 in seen
            step_cap_hit |= 4.0 in seen
            stalled |= bool(caught)
            assert (sample_outcome(sample_fiber, params, 10, seed)
                    == sample_outcome(serial_sample_fiber, params, 10, seed))
    assert floor_hit and step_cap_hit and stalled


@pytest.mark.parametrize("sum_tol", [-1.0, 1e-17])
def test_sample_fiber_row_sum_errors_match_serial(monkeypatch, sum_tol):
    # a row-sum tolerance below rounding makes MixingMatrix reject some
    # proposals (all of them at -1) with InvalidParameter: the stacked walk
    # must raise exactly where the serial one does, and not before
    cases = [(random_chain(Shape(r1, r2, r1), np.random.default_rng(seed),
                           min_entry=0.02), seed)
             for seed, (r1, r2) in enumerate([(3, 2), (4, 3), (6, 4), (5, 5)])]
    monkeypatch.setattr(fiber, "SUM_TOL", sum_tol)
    errors = 0
    for params, seed in cases:
        for n in (1, 5, 20):
            ours = sample_outcome(sample_fiber, params, n, seed)
            assert ours == sample_outcome(serial_sample_fiber, params, n, seed)
            errors += ours[0] == "error"
    assert errors


# ------------------------------------------------------------ profile_along_fiber

@settings(max_examples=80, deadline=None)
@given(**SHAPES, steps=st.integers(2, 30), seed=SEEDS,
       kind=st.sampled_from(["vertex", "exit", "singular", "interior",
                             "random"]))
def test_profile_matches_serial(r1, r2, r3, steps, seed, kind):
    rng = np.random.default_rng(seed)
    params = random_chain(Shape(r1, r2, r3), rng, min_entry=1e-3)
    counts = counts_for(params, rng)
    q_end = path_end(params, rng, kind)
    assert (profile_outcome(profile_along_fiber, counts, params, q_end, steps)
            == profile_outcome(serial_profile_along_fiber, counts, params,
                               q_end, steps))


def test_profile_exit_path_keeps_prefix_and_exit_t():
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        params = random_chain(Shape(3, 2, 3), rng, min_entry=0.02)
        counts = counts_for(params, rng)
        q_end = path_end(params, rng, "exit")
        ours = profile_outcome(profile_along_fiber, counts, params, q_end, 17)
        assert ours[0] == "exit" and ours[2] >= 1
        assert ours == profile_outcome(serial_profile_along_fiber, counts,
                                       params, q_end, 17)


def test_profile_row_sum_errors_match_serial(monkeypatch):
    # a row-sum tolerance below rounding makes ChainParams, JointTable or
    # MarginalTable reject some steps with InvalidParameter: the stacked
    # walk must hand exactly those steps to the step-by-step walk
    import latentgeom.model as model_mod
    cases = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        params = random_chain(Shape(4, 2 + seed % 2, 4), rng, min_entry=0.02)
        kind = "vertex" if seed % 4 == 0 else "interior"
        cases.append((counts_for(params, rng), params,
                      path_end(params, rng, kind)))
    monkeypatch.setattr(model_mod, "SUM_TOL", 1e-17)
    moved_rows_rejected = 0
    for counts, params, q_end in cases:
        ours = profile_outcome(profile_along_fiber, counts, params, q_end, 17)
        assert ours == profile_outcome(serial_profile_along_fiber, counts,
                                       params, q_end, 17)
        moved_rows_rejected += ours[0] == "error" and (" of a " in ours[1]
                                                       or " of b " in ours[1])
    assert moved_rows_rejected


def test_profile_table_sum_errors_match_serial(monkeypatch):
    # below rounding, a step whose rows of a and b sum to 1 exactly can
    # still have a joint or marginal table that does not: the stacked mask
    # must reject that step where JointTable or MarginalTable would.  The
    # messages of two such steps often read the same, so the mixing each
    # walk applied last, the one that raised, must match too
    import sys
    import latentgeom.likelihood as likelihood_mod
    import latentgeom.model as model_mod
    cases = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        r1, r2, r3 = (int(x) for x in rng.integers(2, [6, 4, 6]))
        params = random_chain(Shape(r1, r2, r3), rng, min_entry=0.02)
        cases.append((counts_for(params, rng), params,
                      path_end(params, rng, "interior")))
    applied = []
    for module, name in ((likelihood_mod, "apply_mixing"),
                         (sys.modules[__name__], "serial_apply_mixing")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda p, q, real=real:
                            applied.append(q.q) or real(p, q))
    monkeypatch.setattr(model_mod, "SUM_TOL", 1e-17)
    tables_rejected = 0
    for counts, params, q_end in cases:
        outcomes = []
        for fn in (profile_along_fiber, serial_profile_along_fiber):
            applied.clear()
            outcomes.append((profile_outcome(fn, counts, params, q_end, 17),
                             applied[-1].tobytes() if applied else None))
        assert outcomes[0] == outcomes[1]
        tables_rejected += (outcomes[0][0][0] == "error"
                            and "cells sum to" in outcomes[0][0][1]
                            and outcomes[0][1] is not None)
    assert tables_rejected


# ------------------------------------------------------------ the kernel itself

def test_clamp_snaps_an_entry_of_exactly_minus_clamp_eps():
    # the clamp test accepts an entry of -CLAMP_EPS, so the snap zeroes it
    # and the point is valid
    b = np.array([[0.5 + CLAMP_EPS, 0.5, -CLAMP_EPS], [0.2, 0.3, 0.5]])
    out = fiber._clamp_rows("b", b)
    assert out[0, 2] == 0.0 and (out >= 0.0).all()
    assert np.array_equal(out, serial_clamp_rows("b", b))
    assert np.array_equal(fiber._snap(b[None])[0], out)
    ChainParams(Shape(2, 2, 3), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], out)
    with pytest.raises(InvalidMixing):
        fiber._clamp_rows("b", b - [[0.0, 0.0, CLAMP_EPS], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("r2", [2, 3, 4])
def test_kernel_masks_singular_and_bad_members_without_warnings(r2):
    params = random_chain(Shape(4, r2, 4), np.random.default_rng(r2),
                          min_entry=0.02)
    eye = np.eye(r2)
    singular = np.full((r2, r2), 1.0 / r2)
    off_sum = eye.copy()
    off_sum[0, 0] = 2.0
    nonfinite = eye.copy()
    nonfinite[0, 0] = np.inf
    qs = np.stack([eye, singular, off_sum, nonfinite, eye])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = fiber._mix(params, qs)
    assert mixed.valid.tolist() == [True, False, False, False, True]
    assert mixed.bad.tolist() == [False, False, True, True, False]
    with pytest.raises(SingularMixing):
        MixingMatrix(singular)


# ------------------------------------------------------------ the point constructor

@settings(max_examples=60, deadline=None)
@given(**SHAPES, seed=SEEDS, floor=st.sampled_from([1e-3, 1e-7, 1e-13]))
def test_fiber_points_equal_checked_chain_params(r1, r2, r3, seed, floor):
    # every point either walk returns is the value ChainParams would build,
    # frozen, and shares the input's shape and p1
    rng = np.random.default_rng(seed)
    params = near_boundary_chain((r1, r2, r3), rng, floor)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RejectionStall)
        points = sample_fiber(params, 5, seed=seed)
    m = rng.standard_normal((r2, r2))
    m -= m.mean(axis=1, keepdims=True)
    points.append(apply_mixing(
        params, MixingMatrix(np.eye(r2) + interior_scale(params, m) * m)))
    for point in points:
        assert point == ChainParams(params.shape, params.p1, point.a, point.b)
        assert point.shape is params.shape and point.p1 is params.p1
        assert not (point.a.flags.writeable or point.b.flags.writeable)


def point_outcome(params, a, b):
    """What fiber._point and ChainParams each make of the rows a and b."""
    outcomes = []
    for build in (fiber._point,
                  lambda p, a, b: ChainParams(p.shape, p.p1, a, b)):
        try:
            point = build(params, a.copy(), b.copy())
            outcomes.append((bits(point.p1), bits(point.a), bits(point.b)))
        except InvalidParameter as exc:
            outcomes.append(("error", str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def test_point_falls_back_to_chain_params(monkeypatch):
    # rows the construction does not prove go through ChainParams, with its
    # error and message: a NaN row, a row whose sum overflowed to zeros,
    # and any row while SUM_TOL is below the (r + 1) eps bound
    import latentgeom.model as model_mod
    params = ChainParams(Shape(3, 2, 3), [0.25, 0.25, 0.5],
                         [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]],
                         [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
    nan_a = params.a.copy()
    nan_a[1] = np.nan
    with np.errstate(over="ignore"):
        overflowed = fiber._snap(np.array([[1e308, 1e308, 1.0],
                                           [0.2, 0.3, 0.5]]))
    assert not overflowed[0].any()
    # snapped, this row sums to 1 - 2**-53
    short = fiber._snap(np.array([[0.1, 0.2, 0.3], [0.2, 0.3, 0.5]]))
    assert short.sum(axis=1)[0] != 1.0
    assert point_outcome(params, nan_a, params.b) == (
        "error", "a contains non-finite values")
    assert point_outcome(params, params.a, overflowed)[1].startswith(
        "row 0 of b sums to")
    assert point_outcome(params, params.a, short)[0] == bits(params.p1)
    monkeypatch.setattr(model_mod, "SUM_TOL", 1e-17)
    assert point_outcome(params, params.a, short)[1].startswith(
        "row 0 of b sums to")
