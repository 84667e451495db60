"""Rank-3 consistency by a polygon nested between the hull of the rows
p(Y3 | Y1 = i) and the simplex, found by the tangent walk of
``identifiability._nested_polygon``."""

import itertools
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from latentgeom import (  # noqa: E402
    ChainParams,
    MarginalTable,
    Shape,
    consistency_check,
    joint_from_chain,
    kl_divergence,
    marginal_13,
    marginal_rank,
)
from latentgeom.identifiability import _exact_witness  # noqa: E402
from conftest import seeded_chain  # noqa: E402

SEEDS = st.integers(0, 2 ** 32 - 1)
#: slack matrix of the unit square: rank 3, nonnegative rank 4
SQUARE_SLACK = np.array([[0.0, 1.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 1.0, 0.0],
                         [0.0, 1.0, 1.0, 0.0]])


@st.composite
def rank_three_marginals(draw, low):
    """Marginals of rank 3 of chains with 3 hidden states and r1, r3 in
    [low, 7]: interior seeded chains, or boundary chains of small integer
    weights with zeros in p1, a and b."""
    r1, r3 = draw(st.integers(low, 7)), draw(st.integers(low, 7))
    if draw(st.booleans()):
        params = seeded_chain((r1, 3, r3), draw(SEEDS))
    else:
        def weights(n, m):
            flat = draw(st.lists(st.integers(0, 3), min_size=n * m,
                                 max_size=n * m))
            table = np.array(flat, dtype=float).reshape(n, m)
            assume((table.sum(axis=1) > 0).all())
            return table / table.sum(axis=1, keepdims=True)

        params = ChainParams(Shape(r1, 3, r3), weights(1, r1)[0],
                             weights(r1, 3), weights(3, r3))
    target = marginal_13(joint_from_chain(params))
    assume(marginal_rank(target) == 3)
    return target


def _certified_by_the_walk(target, r2):
    report = consistency_check(target, r2)
    assert report.feasible
    assert report.restarts_tried == 0
    assert report.divergences == report.restart_iterations == ()
    assert report.proven_infeasible_by is None
    assert report.witness.shape == Shape(*target.shape[:1], r2, target.shape[1])
    kl = kl_divergence(target, marginal_13(joint_from_chain(report.witness)))
    assert kl == report.best_divergence <= 1e-14


@settings(max_examples=200, deadline=None)
@given(target=rank_three_marginals(4))
def test_every_chain_marginal_at_r2_3_is_certified_by_a_triangle(target):
    _certified_by_the_walk(target, 3)


@settings(max_examples=60, deadline=None)
@given(target=rank_three_marginals(5))
def test_rank_three_tables_at_r2_4_are_certified_by_a_quadrilateral(target):
    _certified_by_the_walk(target, 4)


def test_square_slack_gets_no_triangle_under_any_permutation():
    for rows in itertools.permutations(range(4)):
        for cols in itertools.permutations(range(4)):
            cells = SQUARE_SLACK[list(rows)][:, list(cols)]
            target = MarginalTable((4, 4), cells / cells.sum())
            assert _exact_witness(target, 3, 3) is None


@pytest.mark.parametrize("scale, nests", [
    (0.3, True), ((2 ** 0.5 - 1) * (1 - 1e-9), True),
    ((2 ** 0.5 - 1) * (1 + 1e-6), False), (0.6, False)])
def test_shrunk_square_nests_a_triangle_up_to_sqrt2_minus_1(scale, nests):
    # the rows are the square's slack rows moved towards their mean, so Q is
    # the square and P the square scaled by ``scale`` about its centre; the
    # largest nested triangle has a corner of Q and two vertices on the far
    # sides, and holds P exactly up to scale sqrt(2) - 1
    rows = scale * SQUARE_SLACK + (1.0 - scale) * SQUARE_SLACK.mean(axis=0)
    target = MarginalTable((4, 4), rows / rows.sum())
    witness = _exact_witness(target, 3, 3)
    assert (witness is not None) == nests
    if nests:
        _certified_by_the_walk(target, 3)


def test_no_polygon_above_three_hidden_states_proves_nothing():
    # the regular hexagon's slack matrix has rank 3 and nonnegative rank 5,
    # but the rows' hull and the plane's cut of the simplex are both the
    # hexagon, so no pentagon nests between them: above r2 = 3 the rows of
    # b need not lie in the rows' plane, and the search decides
    angle = np.arange(6) * np.pi / 3
    slack = 1.0 - np.cos(angle[:, None] - angle[None, :] - np.pi / 6) / np.cos(
        np.pi / 6)
    slack[np.abs(slack) < 1e-12] = 0.0
    target = MarginalTable((6, 6), slack / slack.sum())
    assert marginal_rank(target) == 3
    assert _exact_witness(target, 5, 3) is None
    report = consistency_check(target, 5)
    assert report.feasible and report.restarts_tried >= 1


@pytest.mark.parametrize("r1, r3, circle", [
    (2000, 10, False), (10, 2000, False), (600, 10, True)])
def test_large_rank_three_tables_are_decided_in_bounded_memory(r1, r3, circle):
    # the hulls take n log n time and the walk takes its starts in pieces;
    # on the circle every row is a corner of P
    rng = np.random.default_rng([r1, r3])
    if circle:
        angle = 2 * np.pi * np.arange(r1) / r1
        a = (1 + np.cos(angle[:, None] - 2 * np.pi * np.arange(3) / 3)) / 3
    else:
        a = rng.dirichlet(np.ones(3), size=r1)
    cells = rng.dirichlet(np.ones(r1))[:, None] * (a @ rng.dirichlet(np.ones(r3), size=3))
    target = MarginalTable((r1, r3), cells)
    tracemalloc.start()
    try:
        report = consistency_check(target, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.feasible and report.restarts_tried == 0
    assert report.best_divergence <= 1e-14
    assert peak < 32 * 2 ** 20
