"""The numpy behaviour that the bitwise contracts of the EM kernel and of
the fiber's chord sweep rest on.

``likelihood._em_batch`` promises that every restart's iterates are bitwise
those of a run on its own.  Its docstring says why: numpy adds a strided
axis, and a contiguous run of fewer than 8 terms, left to right; it sums a
longer contiguous run pairwise; and a ufunc or a sum gives the same bits
whether it writes a fresh array, a reused ``out=`` buffer, a ``keepdims``
output, a view or its own input.  Two more facts let it divide every cell
and draw a start at once: a quotient by delta lifted by 1 at the cells of
zero weight, times the weights, has the bits of the quotient masked to the
weighted cells; and ``Generator.dirichlet`` with unit weights is the
generator's exponential draws, each row times the reciprocal of its
in-order sum.  This test checks each claim on the installed numpy, so an
upgrade that breaks one fails here by name; the last tests do the same for
the buffers of ``fiber._move``, for the one row division
``model._unit_rows`` and for the C-ordered stacks of ``fiber._act``.
"""

import numpy as np


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _left_to_right(x, axis):
    """The sum along ``axis``, one slice after another in index order."""
    x = np.moveaxis(x, axis, 0)
    total = x[0].copy()
    for term in x[1:]:
        total = total + term
    return total


def _outputs(op, shape):
    """``op(out)`` into a reused buffer full of NaNs and into a prefix view
    of a larger one."""
    reused = np.full(shape, np.nan)
    op(reused)
    view = np.full((2 * shape[0], *shape[1:]), np.nan)[:shape[0]]
    op(view)
    return reused, view


def test_numpy_keeps_the_orders_and_outputs_the_em_kernel_relies_on():
    rng = np.random.default_rng(2501)

    def positive(*shape):           # wide range: any change of order shows
        return np.exp(rng.normal(0.0, 6.0, size=shape))

    # fewer than 8 contiguous terms, and a strided axis of any length, are
    # added left to right
    for n in range(1, 8):
        x = positive(40, n)
        assert _bits(np.add.reduce(x, 1)) == _bits(_left_to_right(x, 1))
    for n in (2, 3, 7, 8, 9, 20):
        x = positive(n, 40)
        assert _bits(np.add.reduce(x, 0)) == _bits(_left_to_right(x, 0))
    # from 8 contiguous terms the sum is pairwise, 8 ways at once: here
    # ((1 + u) + 2u) + (2u + 2u) with 2u = 2**-52, where left to right
    # every u rounds away
    x = np.array([1.0] + [2.0 ** -53] * 7)
    assert np.add.reduce(x) == 1.0 + 3 * 2.0 ** -52
    assert _left_to_right(x, 0) == 1.0

    # the kernel's own calls, at shapes with runs shorter and longer than 8
    for r, r1, r2, r3 in [(1, 3, 2, 3), (4, 5, 3, 9), (3, 2, 9, 12)]:
        p1, a, b = positive(r, r1, 1, 1), positive(r, r1, r2, 1), positive(r, 1, r2, r3)
        w = positive(r, r1, r2, r3)
        cells = p1 * a * b
        delta = positive(r, r1, 1, r3)
        flat = delta.reshape(r, -1)
        a_rows, b_rows = a.sum(2, keepdims=True), b.sum(3, keepdims=True)
        ufuncs = [(np.multiply, p1, a), (np.multiply, p1 * a, b),
                  (np.add, cells[:, :, :1], cells[:, :, 1:2]),
                  (np.divide, cells, delta), (np.multiply, cells, w),
                  (np.divide, p1, 17.0), (np.divide, a, a_rows),
                  (np.divide, b, b_rows), (np.log, flat),
                  (np.multiply, w.reshape(r, -1)[:, :r1 * r3], flat)]
        for ufunc, *args in ufuncs:
            fresh = ufunc(*args)
            for out in _outputs(lambda out: ufunc(*args, out=out), fresh.shape):
                assert _bits(out) == _bits(fresh)
            # in the memory of its first input, as the kernel's quotients are
            if args[0].shape == fresh.shape:
                own = args[0].copy()
                ufunc(own, *args[1:], out=own)
                assert _bits(own) == _bits(fresh)
        # the sums: over (j, k) blocks, k rows, j rows, the i axis and the
        # log-likelihood's rows; a block sums as its flattened run does
        sums = [(cells, (2, 3)), (cells, 3), (a, 2), (cells, 1), (b, 3),
                (flat, 1)]
        for x, axis in sums:
            fresh = np.add.reduce(x, axis, keepdims=True)
            assert _bits(fresh) == _bits(np.add.reduce(x, axis))
            for out in _outputs(lambda out: np.add.reduce(
                    x, axis, keepdims=True, out=out), fresh.shape):
                assert _bits(out) == _bits(fresh)
        assert _bits(np.add.reduce(cells, (2, 3))) == _bits(
            np.add.reduce(cells.reshape(r, r1, -1), 2))
        assert _bits(np.add.reduce(cells, 1)) == _bits(_left_to_right(cells, 1))


def test_row_views_and_reused_buffers_give_the_bits_of_the_4d_calls():
    # the kernel's sums run over 2-d row views and the (r, i, j k) view,
    # its quotients over 2-d and 3-d views, its log-likelihood terms in one
    # reused buffer, and a zero-cell guard as a mask on the quotient (which
    # the kernel's lifted quotient equals, in the test after this one):
    # each gives the bits of the 4-d call or the fresh temporaries
    rng = np.random.default_rng(2801)

    def positive(*shape):
        return np.exp(rng.normal(0.0, 6.0, size=shape))

    for r, r1, r2, r3 in [(1, 3, 2, 3), (4, 5, 3, 9), (3, 2, 9, 12)]:
        p1, a, b = positive(r, r1, 1, 1), positive(r, r1, r2, 1), positive(r, 1, r2, r3)
        cells = p1 * a * b
        a_rows, b_rows = a.sum(2, keepdims=True), b.sum(3, keepdims=True)
        for x, axis, view in [(cells, (2, 3), cells.reshape(r * r1, -1)),
                              (cells, 3, cells.reshape(-1, r3)),
                              (a, 2, a.reshape(-1, r2)),
                              (cells, 1, cells.reshape(r, r1, -1)),
                              (b, 3, b.reshape(-1, r3))]:
            fresh = np.add.reduce(x, axis, keepdims=True)
            for out in _outputs(lambda out: np.add.reduce(
                    view, 1, None, out), view.shape[:1] + view.shape[2:]):
                assert _bits(out) == _bits(fresh)
        for x, rows, x2, rows2 in [(a, a_rows, a.reshape(-1, r2), a_rows.reshape(-1, 1)),
                                   (b, b_rows, b.reshape(-1, r3), b_rows.reshape(-1, 1))]:
            fresh = x / rows
            for out in _outputs(lambda out: np.divide(x2, rows2, out), x2.shape):
                assert _bits(out) == _bits(fresh)
        # the sum over j by slice adds of the (r i, j, k) view, and the
        # quotient of that view by the (r i, 1, k) marginal
        by_i = cells.reshape(r * r1, r2, r3)
        delta = by_i[:, 0:1] + by_i[:, 1:2]
        for j in range(2, r2):
            delta = delta + by_i[:, j:j + 1]
        want = cells[:, :, 0:1] + cells[:, :, 1:2]
        for j in range(2, r2):
            want = want + cells[:, :, j:j + 1]
        assert _bits(delta) == _bits(want)
        fresh = cells / want
        for out in _outputs(lambda out: np.divide(by_i, delta, out), by_i.shape):
            assert _bits(out) == _bits(fresh)

        # the log-likelihood terms: gathered (or not) into a reused buffer,
        # then log and weight product in place
        flat = positive(r, r1 * r3)
        flat[:, ::3] = 0.0
        gather = np.flatnonzero(rng.random(r1 * r3) < 0.7)
        for cols in (None, gather):
            x = flat if cols is None else flat.take(cols, axis=1)
            w = positive(r, x.shape[1])
            buf = np.full(x.shape, np.nan)
            src = flat if cols is None else flat.take(cols, 1, buf, "clip")
            with np.errstate(divide="ignore"):     # log(0) = -inf
                fresh = w * np.log(x)
                np.multiply(w, np.log(src, buf), buf)
            assert _bits(buf) == _bits(fresh)
            assert _bits(np.add.reduce(buf, 1)) == _bits(np.add.reduce(fresh, 1))

        # zero-weight cells: the quotient masked to the observed cells, times
        # the weights, equals the quotient by the guarded marginal (a cell
        # is exactly 0 wherever its marginal is)
        p1[0, 0] = 0.0
        b[..., 0] = 0.0
        cells = p1 * a * b
        delta = cells.sum(2, keepdims=True)
        w = np.repeat(positive(r, r1, 1, r3), r2, 2)
        w[:, :, :, ::2] = 0.0
        w[:, 0] = 0.0
        fresh = cells / np.where(delta > 0.0, delta, 1.0) * w
        with np.errstate(divide="ignore", invalid="ignore"):
            got = np.multiply(np.divide(cells, delta, cells.copy(), where=w > 0.0), w)
        assert _bits(got) == _bits(fresh)


def test_the_lifted_quotient_times_the_weights_is_the_masked_one():
    # the kernel adds 1 to delta at the cells of zero weight and divides
    # every cell: an observed cell divides by delta + 0.0, which is delta,
    # and an unobserved one gives a finite quotient that its zero weight
    # makes +0.0, as it made the kept p1 a b.  Here with an unobserved cell
    # of marginal 0 and observed cells near underflow
    rng = np.random.default_rng(3801)
    tiny = np.finfo(float).tiny
    for r, r1, r2, r3 in [(1, 3, 2, 3), (4, 5, 3, 9), (3, 2, 9, 12)]:
        p1, a = rng.random((r, r1, 1, 1)), rng.random((r, r1, r2, 1))
        b = rng.random((r, 1, r2, r3))
        p1[0, 0] = 0.0                       # a row of zero marginals
        b[:, :, :, 0] = 0.0                  # a column of them
        p1[-1, -1] *= tiny                   # subnormal cells and marginals
        b[:, :, :, -1] *= 4.0 * tiny
        cells = p1 * a * b
        delta = cells.sum(2, keepdims=True)
        w = np.repeat(rng.random((r1, 1, r3)) * np.exp(rng.normal(0.0, 6.0, (r1, 1, r3))),
                      r2, 1)
        w[0, :, 0] = 0.0                     # unobserved, marginal 0
        w[-1, :, 1] = 0.0                    # unobserved, marginal > 0
        w[-1, :, -1] = tiny                  # observed near underflow
        lift = np.where(w[:, :1] > 0.0, 0.0, 1.0)
        assert (delta[:, 0, :, 0] == 0.0).all() and (delta[:, -1, :, 1] > 0.0).all()
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.multiply(np.divide(cells, delta, cells.copy(), where=w > 0.0), w)
            lifted = delta + lift
            got = np.divide(cells, lifted) * w
        assert _bits(np.where(lift > 0.0, delta, lifted)) == _bits(delta)
        assert _bits(got) == _bits(want)
        unobserved = got[:, w == 0.0]
        assert (unobserved == 0.0).all() and not np.signbit(unobserved).any()


def test_dirichlet_is_the_normalised_exponential_draws():
    # Generator.dirichlet(np.ones(k)) draws k standard exponentials and
    # multiplies them by the reciprocal of their in-order sum, so one
    # standard_exponential block, normalised row by row, gives the three
    # Dirichlet draws of a start; k = 2..12 takes the rows past the 8 terms
    # from which add.reduce sums pairwise
    for seed in (0, 1, 38, 2 ** 32 - 1, [7, 3]):
        for k in range(2, 13):
            for m in (1, 4, 64):
                want = np.random.default_rng(seed).dirichlet(np.ones(k), size=m)
                e = np.random.default_rng(seed).standard_exponential((m, k))
                got = e * (1.0 / np.add.accumulate(e, 1)[:, -1:])
                assert _bits(got) == _bits(want)
        for r1, r2, r3 in [(3, 2, 3), (4, 3, 4), (12, 9, 10)]:
            rng, block = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [rng.dirichlet(np.ones(r1)), rng.dirichlet(np.ones(r2), size=r1),
                    rng.dirichlet(np.ones(r3), size=r2)]
            e = block.standard_exponential(r1 + r1 * r2 + r2 * r3)
            for part, k, x in zip(np.split(e, [r1, r1 + r1 * r2]), (r1, r2, r3), want):
                rows = part.reshape(-1, k)
                got = rows * (1.0 / np.add.accumulate(rows, 1)[:, -1:])
                assert _bits(got) == _bits(x)
            # and the generators end in the same state
            assert rng.random() == block.random()


def test_the_chord_sweep_buffers_give_the_bits_of_fresh_arrays():
    # fiber._move divides into column blocks of one slopes buffer whose
    # last two columns hold the cut slopes, where it concatenated fresh
    # quotients and a broadcast; and it updates a, b[:, j] and a[:, :, j] in
    # place through out=.  Each gives the fresh bits, and the row extremes
    # of a row holding a NaN are NaN either way
    from latentgeom.fiber import DET_EPS

    rng = np.random.default_rng(3202)
    for count, r1, r2, r3 in [(1, 3, 2, 3), (10, 5, 3, 9), (7, 4, 9, 12)]:
        a, b = rng.random((count, r1, r2)), rng.random((count, r2, r3))
        step, shift = rng.normal(size=(count, r1, r2)), rng.normal(size=(count, r3))
        a[0, 0, 1] = step[0, 0, 1] = 0.0                # 0 / 0: NaN
        a[-1, 1, 0] = b[-1, 0, 2] = 0.0                 # x / 0: an infinity
        cells, j = r1 * r2, 1
        with np.errstate(divide="ignore", invalid="ignore"):
            fresh = np.concatenate([(step / a).reshape(count, -1), shift / b[:, j],
                                    np.broadcast_to([-DET_EPS, DET_EPS], (count, 2))], 1)
            slopes = np.full((2 * count, cells + r3 + 2), np.nan)[:count]
            slopes[:, -2:] = -DET_EPS, DET_EPS
            np.divide(step.reshape(count, cells), a.reshape(count, cells),
                      out=slopes[:, :cells])
            np.divide(shift, b[:, j], out=slopes[:, cells:-2])
        assert _bits(slopes) == _bits(fresh)
        for reduce, method in ((np.maximum.reduce, fresh.max), (np.minimum.reduce, fresh.min)):
            assert _bits(reduce(slopes, 1)) == _bits(method(axis=1))
            assert np.isnan(reduce(slopes, 1)[0]) and not np.isnan(reduce(slopes, 1)[1:]).any()

        t = rng.normal(size=count)
        den = (1.0 + t * rng.normal(size=count))[:, None, None]
        want_a = (a + t[:, None, None] * step) / den
        prod, moved = np.multiply(t[:, None, None], step), a.copy()
        np.add(moved, prod, out=prod)
        np.divide(prod, den, out=moved)
        assert _bits(moved) == _bits(want_a)
        want_b, got_b = b.copy(), b.copy()
        want_b[:, j] += t[:, None] * shift
        want_sums = want_b[:, j].sum(axis=1, keepdims=True)
        want_b[:, j] /= want_sums
        want_a[:, :, j] *= want_sums
        bj, aj = got_b[:, j], moved[:, :, j]
        np.add(bj, t[:, None] * shift, out=bj)
        sums = np.add.reduce(bj, 1, keepdims=True)
        np.divide(bj, sums, out=bj)
        np.multiply(aj, sums, out=aj)
        assert _bits(got_b) == _bits(want_b) and _bits(moved) == _bits(want_a)


def test_unit_rows_divide_each_c_ordered_row_as_on_its_own():
    # model._unit_rows, the package's one row division, gives each row of
    # a C-ordered stack the bits of dividing it by its own sum, a run added
    # left to right below 8 entries and pairwise from 8; fiber._snap and
    # _clamp_rows divide rows above 0 by it, without a copy
    from latentgeom.fiber import _clamp_rows, _snap
    from latentgeom.model import _unit_rows

    rng = np.random.default_rng(3501)
    for m in range(2, 21):
        rows = np.exp(rng.normal(0.0, 6.0, size=(5, 4, m)))
        want = np.array([[row / np.add.reduce(row) for row in block] for block in rows])
        got, flat = _unit_rows(rows, rows[0, 0])
        assert got.flags.c_contiguous and _bits(got) == _bits(want)
        assert _bits(flat) == _bits(want[0, 0])
        assert _bits(_snap(rows)) == _bits(_clamp_rows("a", rows)) == _bits(want)


def test_the_mixing_action_returns_c_ordered_stacks():
    # fiber._act copies LAPACK's transposed solve to C order, with its
    # bits; the r2 = 2 inverse and q b are written in C order
    from latentgeom.fiber import _act

    rng = np.random.default_rng(3502)
    for r2 in range(2, 10):
        a, b = rng.dirichlet(np.ones(r2), size=6), rng.dirichlet(np.ones(5), size=r2)
        m = rng.standard_normal((3, r2, r2))
        qs = np.eye(r2) + 0.1 * (m - m.mean(axis=2, keepdims=True))
        moved, mixed = _act(a, b, qs)
        assert moved.flags.c_contiguous and mixed.flags.c_contiguous
        assert _bits(mixed) == _bits(qs @ b)
        if r2 > 2:
            want = np.linalg.solve(qs.transpose(0, 2, 1), a.T).transpose(0, 2, 1)
            assert not want.flags.c_contiguous and _bits(moved) == _bits(want)
