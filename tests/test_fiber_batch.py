"""The stacked fiber kernels against serial references.

``serial_profile_along_fiber`` evaluates one step at a time with the serial
``apply_mixing`` arithmetic (a determinant, which must exceed DET_EPS, then
the analytic inverse for r2 = 2 or one ``solve``, then the clamp), and
scans an exit one point at a time; the library's stacked walk must match
it bit for bit: the same trace, the same prefix and ``exit_t``, the same
warnings and the same errors.  ``serial_sweep`` moves one point
at a time, one chord at a time: it finds each chord from its constraints
one by one and applies the move as a :class:`MixingMatrix`, and
``sample_fiber`` must give its points to rounding.
"""

import functools
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
    Shape,
    SingularMixing,
    apply_mixing,
    extreme_mixings,
    joint_from_chain,
    loglik,
    profile_along_fiber,
    random_chain,
    sample_fiber,
)
from latentgeom import fiber, likelihood, model
from latentgeom.fiber import CLAMP_EPS, DET_EPS
from latentgeom.model import SUM_TOL

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

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


def serial_action(params, q):
    """The clamped rows of a q^{-1} and q b for det q > DET_EPS, the
    identity's side of the singular matrices."""
    r2 = params.shape.r2
    det = q.det
    if det <= DET_EPS:
        raise SingularMixing(f"det q = {det:.3e} <= {DET_EPS}")
    if r2 == 2:
        pi = float(q.q[0, 0])
        rho = float(q.q[1, 0])
        col = params.a[:, 0]
        a_new = np.column_stack([(col - rho) / (pi - rho),
                                 (pi - col) / (pi - rho)])
    else:
        a_new = np.linalg.solve(q.q.T, params.a.T).T
    b_new = q.q @ params.b
    return serial_clamp_rows("a", a_new), serial_clamp_rows("b", b_new)


def serial_apply_mixing(params, q):
    return ChainParams(params.shape, params.p1, *serial_action(params, q))


def serial_chord(params, w, j):
    """The t for which q = I + t e_j w^T keeps a q^{-1} and q b
    nonnegative and det q > 0, each constraint c + t d >= 0 on its own; the
    cut at |t| = 1 / DET_EPS bounds a chord that nothing else does."""
    a, b = params.a, params.b
    constraints = [(1.0, w[j])]
    constraints += [(a[i, k], a[i, k] * w[j] - a[i, j] * w[k])
                    for i in range(len(a)) for k in range(len(w))]
    constraints += [(b[j, k], w @ b[:, k]) for k in range(b.shape[1])]
    lo, hi = -1.0 / DET_EPS, 1.0 / DET_EPS
    for c, d in constraints:
        if d > 0.0:
            lo = max(lo, -c / d)
        elif d < 0.0:
            hi = min(hi, -c / d)
    return lo, hi


def serial_sweep(params, n, seed=0):
    """One point at a time, one chord at a time, each move through
    ``apply_mixing``; the draws are those of ``sample_fiber``."""
    rng = np.random.default_rng(seed)
    r2 = params.shape.r2
    out = []
    for start in range(0, n, fiber._DRAWS):
        w = rng.standard_normal((min(n - start, fiber._DRAWS), r2, r2))
        w[:, :, -1] = -w[:, :, :-1].sum(axis=2)
        u = rng.random((len(w), r2))
        for k in range(len(w)):
            point = params
            for j in range(r2):
                lo, hi = serial_chord(point, w[k, j], j)
                q = np.eye(r2)
                q[j] += (lo + u[k, j] * (hi - lo)) * w[k, j]
                point = apply_mixing(point, MixingMatrix(q))
            out.append(point)
    return out


def serial_profile_along_fiber(counts, params, q_end, steps, applied=None):
    """One step at a time, each through ``serial_apply_mixing`` and
    ``loglik``; the mixing of every step is appended to ``applied``.  At
    the first step outside the polytope, scans of ``likelihood._SCAN``
    points, one point at a time, narrow the exit down to the cell before
    each scan's first point outside."""
    r2 = params.shape.r2
    if not np.isfinite(loglik(counts, params)):
        raise InvalidParameter("counts lie outside the support of the "
                               "starting model")

    def mixing(t):
        return MixingMatrix((1.0 - t) * np.eye(r2) + t * q_end.q)

    def accepts(t):
        try:
            serial_action(params, mixing(t))
        except (InvalidParameter, InvalidMixing, SingularMixing):
            return False
        return True

    rows = []
    ts = np.linspace(0.0, 1.0, steps)
    for idx, t in enumerate(ts):
        try:
            q = mixing(float(t))
            if applied is not None:
                applied.append(q.q)
            moved = serial_apply_mixing(params, q)
        except (InvalidMixing, SingularMixing):
            lo, hi = float(ts[idx - 1]), float(t)
            while True:
                grid = np.linspace(lo, hi, likelihood._SCAN)
                k = next(k for k, x in enumerate(grid) if not accepts(float(x)))
                if (grid[k - 1], grid[k]) == (lo, hi):
                    raise PathExitsPolytope(rows, lo)
                lo, hi = float(grid[k - 1]), float(grid[k])
        rows.append((float(t), loglik(counts, moved),
                     float(min(moved.p1.min(), moved.a.min(), moved.b.min()))))
    return np.array(rows)


# ------------------------------------------------------------ outcomes as bits

def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def sample_outcome(params, n, seed):
    """The points of ``sample_fiber``, which must issue no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return sample_fiber(params, n, seed=seed)


def assert_points_close(ours, theirs):
    assert len(ours) == len(theirs)
    for x, y in zip(ours, theirs):
        assert np.array_equal(x.p1, y.p1)
        assert np.abs(x.a - y.a).max() < 1e-12
        assert np.abs(x.b - y.b).max() < 1e-12


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
    if kind == "boundary exit":
        # from a start with a zero in a, say a_ij: a q(t)^{-1} moves it by
        # -t (a m)_ij to first order, so the path leaves at once when
        # (a m)_ij > 0
        i, j = np.argwhere(params.a == 0.0)[0]
        m *= np.sign(params.a[i] @ m[:, j])
    if kind == "interior":
        # |t s M| <= 0.3 min_entry in the max-row-sum norm keeps every q(t)
        # of the path in the polytope
        return MixingMatrix(eye + interior_scale(params, m) * m)
    return MixingMatrix(eye + rng.uniform(0.01, 2.0) * m)


def boundary_start(params, rng):
    """``params`` with one entry of a set to 0 and its row renormalised."""
    a = params.a.copy()
    i, j = int(rng.integers(len(a))), int(rng.integers(a.shape[1]))
    a[i, j] = 0.0
    a[i] /= a[i].sum()
    return ChainParams(params.shape, params.p1, a, params.b)


def interior_scale(params, m):
    return 0.3 * params.min_entry / np.abs(m).sum(axis=1).max()


SHAPES = dict(r1=st.integers(2, 8), r2=st.integers(2, 5), r3=st.integers(2, 8))


# ------------------------------------------------------------ sample_fiber

@settings(max_examples=60, deadline=None)
@given(**SHAPES, n=st.integers(0, 12), seed=SEEDS)
# the cli's fiber command samples 50 points of a 3 x 2 x 3 chain
@example(r1=3, r2=2, r3=3, n=50, seed=0)
@example(r1=3, r2=2, r3=3, n=50, seed=2 ** 32 - 1)
def test_sample_fiber_matches_serial(r1, r2, r3, n, seed):
    params = random_chain(Shape(r1, r2, r3), np.random.default_rng(seed),
                          min_entry=1e-3)
    assert_points_close(sample_outcome(params, n, seed),
                        serial_sweep(params, n, seed))


@settings(max_examples=40, deadline=None)
@given(**SHAPES, n=st.integers(0, 12), seed=SEEDS,
       floor=st.sampled_from([1e-7, 1e-13]))
def test_sample_fiber_near_boundary_matches_serial(r1, r2, r3, n, seed, floor):
    params = near_boundary_chain((r1, r2, r3), np.random.default_rng(seed),
                                 floor)
    # rows of b pinned alike are all equal, and then rounding alone sets
    # where each move goes on chords up to 2e12 long: the rows-of-b test
    # below checks that those points are valid all the same
    assume(np.ptp(params.b, axis=0).max() > 1e-3)
    assert_points_close(sample_outcome(params, n, seed),
                        serial_sweep(params, n, seed))


def marginal(params):
    return (params.p1[:, None] * params.a) @ params.b


#: shapes where r2 > min(r1, r3), where the rows of a or of b are dependent
DEPENDENT_SHAPES = [(5, 3, 2), (2, 5, 2), (6, 4, 3), (3, 4, 6)]


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(DEPENDENT_SHAPES) | st.tuples(*SHAPES.values()),
       n=st.integers(0, 40), seed=SEEDS,
       floor=st.sampled_from([1e-3, 1e-7, 1e-13]))
def test_sample_fiber_keeps_the_marginal(shape, n, seed, floor):
    # exactly n points, on the fiber to rounding, nonnegative, fixed by the
    # seed and with no warning, also where r2 exceeds r1 or r3
    params = near_boundary_chain(shape, np.random.default_rng(seed), floor)
    points = sample_outcome(params, n, seed)
    assert len(points) == n
    for point in points:
        assert point.a.min() >= 0.0 and point.b.min() >= 0.0
        assert np.abs(marginal(point) - marginal(params)).max() < 1e-12
    again = sample_fiber(params, n, seed=seed)
    assert [(bits(p.a), bits(p.b)) for p in points] == [
        (bits(p.a), bits(p.b)) for p in again]


@pytest.mark.parametrize("ties", ["equal", "one ulp"])
@pytest.mark.parametrize("r2", [2, 3, 5])
def test_sample_fiber_on_rows_of_b_that_do_not_bound_the_chord(r2, ties):
    # rows of b all equal leave a chord that only the cut at 1 / DET_EPS
    # bounds; rows one ulp apart give chords longer than the cut.  The points
    # keep the marginal all the same: each move rescales row j of b to sum 1
    rng = np.random.default_rng(r2)
    params = random_chain(Shape(4, r2, 3), rng, min_entry=0.05)
    b = np.tile(params.b[0], (r2, 1))
    if ties == "one ulp":
        b[0, 0] = np.nextafter(b[0, 0], 1.0)
        b[0, 1] = np.nextafter(b[0, 1], 0.0)
    params = ChainParams(params.shape, params.p1, params.a, b)
    for point in sample_outcome(params, 200, r2):
        assert point.a.min() >= 0.0 and point.b.min() >= 0.0
        assert np.abs(marginal(point) - marginal(params)).max() < 1e-12


@pytest.mark.parametrize("shape", [(3, 2, 3), (5, 2, 9), *DEPENDENT_SHAPES,
                                   (10, 3, 10), (30, 5, 30)])
def test_each_chord_end_puts_a_zero_in_a_or_b(shape):
    # a move to either end of its chord, from interior points, drives an
    # entry of a' or b' to 0 within CLAMP_EPS, and keeps the rest valid
    rng = np.random.default_rng(sum(shape))
    params = [random_chain(Shape(*shape), rng, min_entry=1e-3)
              for _ in range(20)]
    r2 = shape[1]
    w = rng.standard_normal((20, r2))
    w[:, -1] = -w[:, :-1].sum(axis=1)
    for j in range(r2):
        for end in (0.0, 1.0):
            a = np.stack([p.a for p in params])
            b = np.stack([p.b for p in params])
            fiber._move(a, b, w, j, np.full(20, end), fiber._workspace(20, *shape))
            lows = np.minimum(a.min(axis=(1, 2)), b.min(axis=(1, 2)))
            assert (np.abs(lows) <= CLAMP_EPS).all()
            for p, ak, bk in zip(params, a, b):
                assert np.abs(ak.sum(axis=1) - 1.0).max() <= SUM_TOL
                assert np.abs(bk.sum(axis=1) - 1.0).max() <= SUM_TOL
                assert np.abs((p.p1[:, None] * ak) @ bk - marginal(p)).max() < 1e-12


# ------------------------------------------------------------ kernel stacks

@pytest.mark.parametrize("r2", [2, 3, 4, 5])
def test_kernel_members_equal_their_stacks_of_one(r2):
    # the profile runs the kernel on a stack of its steps: each member,
    # up to a stack of _DRAWS, must get the bits of a stack of one, valid,
    # outside the polytope, singular or bad alike
    rng = np.random.default_rng(r2)
    params = random_chain(Shape(int(rng.integers(2, 31)), r2,
                                int(rng.integers(2, 31))), rng, min_entry=1e-3)
    m = rng.standard_normal((fiber._DRAWS, r2, r2))
    m -= m.mean(axis=2, keepdims=True)
    # steps from 1e-4 to 4
    qs = np.eye(r2) + 4.0 ** rng.uniform(-6.6, 1.0, (fiber._DRAWS, 1, 1)) * m
    qs[1::7] = np.full((r2, r2), 1.0 / r2)
    qs[2::11, 0, 0] += 1.0
    qs[3::13, -1, -1] = np.nan
    alone = [fiber._mix(params, q[None]) for q in qs]
    for size in (1, 8, 300, fiber._DRAWS):
        mixed = fiber._mix(params, qs[:size])
        for k in range(size):
            assert ([bits(field[k]) for field in mixed]
                    == [bits(field[0]) for field in alone[k]])
    # the members MixingMatrix refuses with InvalidParameter: a non-finite
    # entry or a row sum off 1
    bad = ~(np.abs(qs.sum(axis=2) - 1.0) <= SUM_TOL).all(axis=1)
    valid = mixed[-1]
    singular = np.zeros(fiber._DRAWS, dtype=bool)
    singular[1::7] = True
    singular &= ~bad
    assert singular.any() and not valid[singular].any()
    assert valid.any() and bad.any() and not valid[bad].any()
    assert (~valid & ~bad & ~singular).any()


# ------------------------------------------------------------ profile_along_fiber

@settings(max_examples=80, deadline=None)
@given(**SHAPES, steps=st.integers(2, 30), seed=SEEDS,
       kind=st.sampled_from(["vertex", "exit", "singular", "interior",
                             "random", "boundary exit"]))
def test_profile_matches_serial(r1, r2, r3, steps, seed, kind):
    rng = np.random.default_rng(seed)
    params = random_chain(Shape(r1, r2, r3), rng, min_entry=1e-3)
    if kind == "boundary exit":
        params = boundary_start(params, rng)
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
    # a row-sum tolerance below rounding makes MixingMatrix, ChainParams,
    # JointTable or MarginalTable reject some steps with InvalidParameter:
    # the stacked walk must raise at exactly those steps what the
    # step-by-step walk does.  Every row-sum test reads model.SUM_TOL, so
    # the stacked q test and MixingMatrix refuse the same rows of q
    import latentgeom.model as model_mod
    cases = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        params = random_chain(Shape(4, 2 + seed % 2, 4), rng, min_entry=0.02)
        kind = "vertex" if seed % 4 == 0 else "interior"
        cases.append((counts_for(params, rng), params,
                      path_end(params, rng, kind)))
    monkeypatch.setattr(model_mod, "SUM_TOL", 1e-17)
    moved_rows_rejected = q_rows_rejected = 0
    for counts, params, q_end in cases:
        if not model_mod._stochastic(params.p1[None]):
            # not a chain at the lowered SUM_TOL: the serial walk re-reads
            # p1 at every step, the stack never, as no step changes it
            continue
        ours = profile_outcome(profile_along_fiber, counts, params, q_end, 17)
        assert ours == profile_outcome(serial_profile_along_fiber, counts,
                                       params, q_end, 17)
        moved_rows_rejected += ours[0] == "error" and (" of a " in ours[1]
                                                       or " of b " in ours[1])
        q_rows_rejected += ours[0] == "error" and " of q sums to " in ours[1]
    assert moved_rows_rejected and q_rows_rejected


def test_profile_table_sum_errors_match_serial(monkeypatch):
    # below rounding, a step whose rows of a and b sum to 1 exactly can
    # still have a joint or marginal table that does not: the forward maps
    # do not check it again, so neither walk refuses such a step.  The
    # messages of two refused steps often read the same, so the moved rows
    # each walk refused, those of the step that raised, must match too
    import latentgeom.model as model_mod
    cases = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        r1, r2, r3 = (int(x) for x in rng.integers(2, [6, 4, 6]))
        params = random_chain(Shape(r1, r2, r3), rng, min_entry=0.02)
        # q on a grid of 2**-20: its rows, and those of each q(t) at
        # t = k / 16 (17 steps), sum to 1 exactly, so MixingMatrix passes
        # them at any SUM_TOL and the walks reach the moved rows and tables
        q = np.round(path_end(params, rng, "interior").q * 2.0 ** 20) / 2.0 ** 20
        q[:, -1] = 1.0 - q[:, :-1].sum(axis=1)
        cases.append((counts_for(params, rng), params, MixingMatrix(q)))
    # the stacked walk builds ChainParams only from the rows that raise;
    # the serial walk hands the mixing of every step to ``applied``
    refused, applied = [], []
    real = likelihood.ChainParams
    monkeypatch.setattr(likelihood, "ChainParams", lambda shape, p1, a, b:
                        refused.append((a, b)) or real(shape, p1, a, b))
    serial = functools.partial(serial_profile_along_fiber, applied=applied)
    monkeypatch.setattr(model_mod, "SUM_TOL", 1e-17)
    tables_past = 0
    for counts, params, q_end in cases:
        if not model_mod._stochastic(params.p1[None]):
            # not a chain at the lowered SUM_TOL: the serial walk re-reads
            # p1 at every step, the stack never, as no step changes it
            continue
        refused.clear()
        applied.clear()
        ours = profile_outcome(profile_along_fiber, counts, params, q_end, 17)
        theirs = profile_outcome(serial, counts, params, q_end, 17)
        assert ours == theirs
        if ours[0] == "error":
            assert len(refused) == 1
            moved = serial_action(params, MixingMatrix(applied[-1]))
            assert [bits(x) for x in refused[0]] == [bits(x) for x in moved]
        if ours[0] == "trace":    # applied holds every serial step
            for q in applied:
                cells = joint_from_chain(
                    serial_apply_mixing(params, MixingMatrix(q))).cells
                tables_past += not (model_mod._stochastic(cells.reshape(1, -1))
                                    & model_mod._stochastic(
                                        cells.sum(axis=1).reshape(1, -1)))
    assert tables_past


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
        _, _, valid = fiber._mix(params, qs)
    assert valid.tolist() == [True, False, False, False, True]
    for q in (off_sum, nonfinite):
        with pytest.raises(InvalidParameter):
            MixingMatrix(q)
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
    points = sample_outcome(params, 5, seed)
    m = rng.standard_normal((r2, r2))
    m -= m.mean(axis=1, keepdims=True)
    points.append(apply_mixing(
        params, MixingMatrix(np.eye(r2) + interior_scale(params, m) * m)))
    for point in points:
        assert point == ChainParams(params.shape, params.p1, point.a, point.b)
        assert point.shape is params.shape and point.p1 is params.p1
        assert not (point.a.flags.writeable or point.b.flags.writeable)


def model_chains(params, a, b):
    """The points (params.p1, a[k], b[k]) the fiber kernels build, by
    ``model._unit_chains``."""
    return model._unit_chains(params.shape, params.p1, a, b)


def point_outcome(params, a, b):
    """What model._unit_chains, on a stack of one, and ChainParams each make
    of the rows a and b."""
    outcomes = []
    for build in (lambda p, a, b: model_chains(p, a[None], b[None])[0],
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


def test_stacked_points_fall_back_to_chain_params_one_by_one(monkeypatch):
    # one point the stacked sum test rejects sends every point through
    # ChainParams: the first point ChainParams rejects raises its own
    # error, and the points it accepts are the same values
    import latentgeom.model as model_mod
    params = ChainParams(Shape(3, 2, 3), [0.25, 0.25, 0.5],
                         [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]],
                         [[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
    nan_a = params.a.copy()
    nan_a[1] = np.nan
    with np.errstate(over="ignore"):
        overflowed = fiber._snap(np.array([[1e308, 1e308, 1.0],
                                           [0.2, 0.3, 0.5]]))
    with pytest.raises(InvalidParameter, match="a contains non-finite"):
        model_chains(params, np.stack([params.a, nan_a, params.a]),
                     np.stack([params.b, params.b, overflowed]))
    with pytest.raises(InvalidParameter, match="row 0 of b sums to"):
        model_chains(params, np.stack([params.a, params.a, nan_a]),
                     np.stack([params.b, overflowed, params.b]))
    a, b = np.stack([params.a, params.a[::-1]]), np.stack([params.b] * 2)
    fast = model_chains(params, a.copy(), b.copy())
    assert all(p.p1 is params.p1 for p in fast)
    # below the (r + 1) eps bound every point is checked; these rows sum
    # to 1 exactly, so each passes
    monkeypatch.setattr(model_mod, "SUM_TOL", 5e-16)
    slow = model_chains(params, a.copy(), b.copy())
    assert all(p.p1 is not params.p1 for p in slow)
    assert [(bits(p.a), bits(p.b)) for p in slow] == [
        (bits(p.a), bits(p.b)) for p in fast]
