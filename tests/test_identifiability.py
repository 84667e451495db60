import numpy as np
import pytest

from latentgeom import (
    ChainParams,
    DimsCase,
    GeometryError,
    InvalidParameter,
    MarginalTable,
    Shape,
    consistency_check,
    diagonal_marginal,
    dims,
    joint_from_chain,
    kl_divergence,
    marginal_13,
    marginal_rank,
)
from latentgeom import identifiability
from conftest import seeded_chain, seeded_marginal


# ---------------------------------------------------------------- diagonal

def test_diagonal_marginal_golden():
    marg = diagonal_marginal(3, 3)
    assert np.array_equal(marg.cells, np.eye(3) / 3)
    with pytest.raises(InvalidParameter):
        diagonal_marginal(3, 2)


@pytest.mark.parametrize("r1, r3", [(True, 3), (2.0, 3), (-1, 3), (2, "3"),
                                    (0, 3)])
def test_diagonal_marginal_sizes_are_counts(r1, r3):
    with pytest.raises(InvalidParameter, match="must be"):
        diagonal_marginal(r1, r3)


def test_diagonal_infeasible_at_r2_2_proven_by_rank():
    report = consistency_check(diagonal_marginal(3, 3), r2=2)
    assert not report.feasible
    assert report.proven_infeasible_by == "rank"
    assert report.necessary_checks["rank"] is False
    assert "identity_323" not in report.necessary_checks  # zero cells


def test_diagonal_feasible_at_r2_3_with_tiny_kl():
    report = consistency_check(diagonal_marginal(3, 3), r2=3)
    assert report.feasible
    assert report.best_divergence < 1e-9
    # soundness: the witness reproduces the target independently
    witness_marg = marginal_13(joint_from_chain(report.witness))
    assert kl_divergence(diagonal_marginal(3, 3), witness_marg) < 1e-9


@pytest.mark.parametrize("kwargs", [
    {"maxiter": -1}, {"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")},
    {"tol": float("inf")},
])
def test_consistency_rejects_out_of_range_budget(kwargs):
    with pytest.raises(InvalidParameter):
        consistency_check(diagonal_marginal(3, 3), r2=2, **kwargs)


# ---------------------------------------------------------------- search

def test_self_consistency_of_chain_marginals():
    for seed in range(1100, 1110):
        params = seeded_chain((3, 2, 3), seed)
        target = marginal_13(joint_from_chain(params))
        report = consistency_check(target, r2=2, seed=seed, maxiter=2000)
        assert report.feasible
        assert report.best_divergence < 1e-9
        witness_marg = marginal_13(joint_from_chain(report.witness))
        assert kl_divergence(target, witness_marg) < report.tol


def test_unconstrained_case_is_exact_for_any_positive_target():
    for seed in range(10):
        target = seeded_marginal((3, 3), 1200 + seed)
        report = consistency_check(target, r2=3, seed=seed)
        assert report.feasible
        assert report.best_divergence < 1e-12
    for seed in range(5):
        target = seeded_marginal((2, 4), 1300 + seed)
        report = consistency_check(target, r2=2, seed=seed)
        assert report.feasible
        assert report.best_divergence < 1e-12


def test_rank_two_target_is_exact_without_a_search_budget():
    # one EM iteration from one start cannot reach this target; the
    # closed-form witness does
    target = marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 1600)))
    report = consistency_check(target, r2=2, restarts=1, maxiter=1)
    assert report.feasible
    assert report.best_divergence < 1e-14
    assert report.proven_infeasible_by is None


def test_rank_two_target_with_three_hidden_states_runs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("EM search ran on a rank-2 target")

    monkeypatch.setattr(identifiability, "_em_batch", no_search)
    target = marginal_13(joint_from_chain(seeded_chain((4, 2, 4), 1601)))
    assert marginal_rank(target) == 2
    report = consistency_check(target, r2=3)
    assert report.feasible
    assert report.best_divergence < 1e-14
    assert report.witness.shape == Shape(4, 3, 4)
    # the third hidden state is unused: zero a column, uniform b row
    assert np.array_equal(report.witness.a[:, 2], np.zeros(4))
    assert np.array_equal(report.witness.b[2], np.full(4, 0.25))


def test_report_lists_the_divergence_of_every_restart_examined():
    # this target is first certified by restart 4, in the block 3..6
    target = marginal_13(joint_from_chain(seeded_chain((5, 3, 5), 1704)))
    report = consistency_check(target, r2=3, seed=0)
    assert report.feasible
    assert report.restarts_tried == len(report.divergences) == 5
    assert len(report.restart_iterations) == 5
    assert all(0 < n <= 500 for n in report.restart_iterations)
    assert report.divergences[-1] == report.best_divergence < report.tol
    assert min(report.divergences[:-1]) >= report.tol
    kl = kl_divergence(target, marginal_13(joint_from_chain(report.witness)))
    assert kl == report.best_divergence
    for exact_or_proven in (consistency_check(target, r2=5),
                            consistency_check(target, r2=2)):
        assert exact_or_proven.restarts_tried == 0
        assert exact_or_proven.divergences == ()
        assert exact_or_proven.restart_iterations == ()


@pytest.mark.parametrize("failing, raised", [(0, True), (3, True),
                                             (5, False), (6, False)])
def test_failed_restart_is_raised_only_when_reached(monkeypatch, failing,
                                                    raised):
    target = marginal_13(joint_from_chain(seeded_chain((5, 3, 5), 1704)))
    expected = consistency_check(target, r2=3, seed=0)
    real = identifiability._em_batch
    done = [0]

    def failing_batch(weights, shape, rngs, maxiter, tol):
        runs = real(weights, shape, rngs, maxiter, tol)
        if done[0] <= failing < done[0] + len(rngs):
            runs.errors[failing - done[0]] = GeometryError("restart failed")
        done[0] += len(rngs)
        return runs

    monkeypatch.setattr(identifiability, "_em_batch", failing_batch)
    if raised:
        with pytest.raises(GeometryError, match="restart failed"):
            consistency_check(target, r2=3, seed=0)
    else:
        # restarts after the certified one (4) are never examined
        report = consistency_check(target, r2=3, seed=0)
        assert report.divergences == expected.divergences
        assert report.restart_iterations == expected.restart_iterations
        assert np.array_equal(report.witness.a, expected.witness.a)
        assert np.array_equal(report.witness.b, expected.witness.b)


def test_restart_the_stacked_checks_reject_raises_the_value_type_error(
        monkeypatch):
    # restart 1 gets a negative p1 entry: its marginal leaves the support,
    # so it is no new best, and it still raises what its ChainParams raises
    slack = np.array([[0, 1, 0, 1], [1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0]])
    target = MarginalTable((4, 4), slack / slack.sum())
    real = identifiability._em_batch
    done = [0]

    def corrupting_batch(weights, shape, rngs, maxiter, tol):
        runs = real(weights, shape, rngs, maxiter, tol)
        if done[0] <= 1 < done[0] + len(rngs):
            runs.p1[1 - done[0]] = [-1.0, 2.0, 1.0, 1.0]
        done[0] += len(rngs)
        return runs

    monkeypatch.setattr(identifiability, "_em_batch", corrupting_batch)
    with pytest.raises(InvalidParameter, match=r"p1\(0, 0\) is negative"):
        consistency_check(target, r2=3, restarts=3, maxiter=5)


def test_rank_one_target_puts_every_row_on_one_vertex():
    # dyadic cells: every conditional row is exactly the same, span = 0
    target = MarginalTable((4, 5), np.outer([0.125, 0.125, 0.25, 0.5],
                                            [0.5, 0.125, 0.125, 0.125, 0.125]))
    report = consistency_check(target, r2=2, restarts=1, maxiter=1)
    assert report.feasible
    assert report.best_divergence < 1e-14
    assert np.array_equal(report.witness.a, np.tile([0.0, 1.0], (4, 1)))


@pytest.mark.parametrize("cells, r2, a_dead, b_dead", [
    # Y2 copies Y3: a zero-mass row of Y1 spreads uniformly over Y2
    ([[0.1, 0.2, 0.1], [0.0, 0.0, 0.0], [0.2, 0.3, 0.1], [0.0, 0.0, 0.0]],
     4, np.full(4, 0.25), None),
    # Y2 copies Y1: a zero-mass row keeps its own state, a uniform vertex
    ([[0.1, 0.2, 0.0, 0.1], [0.0, 0.0, 0.0, 0.0], [0.2, 0.1, 0.2, 0.1]],
     3, np.eye(3)[1], np.full(4, 0.25)),
])
def test_zero_mass_rows_of_exact_witness(cells, r2, a_dead, b_dead):
    target = MarginalTable(np.shape(cells), np.array(cells))
    report = consistency_check(target, r2=r2)
    assert report.feasible
    assert report.best_divergence < 1e-15
    assert np.array_equal(report.witness.a[1], a_dead)
    if b_dead is not None:
        assert np.array_equal(report.witness.b[1], b_dead)


def test_identity_check_runs_on_positive_3x3_targets():
    # the rank-2 identity is the rank check in other coordinates, so only
    # the rank check runs, and it alone proves the target infeasible
    target = seeded_marginal((3, 3), 20260809)
    report = consistency_check(target, r2=2)
    assert not report.feasible
    assert report.necessary_checks["rank"] is False
    assert "identity_323" not in report.necessary_checks
    assert report.proven_infeasible_by == "rank"


def test_rank_necessity_on_model_marginals():
    for seed in range(50):
        r2 = 2 if seed % 2 == 0 else 3
        params = seeded_chain((4, r2, 4), 1400 + seed)
        delta = marginal_13(joint_from_chain(params)).cells
        sv = np.linalg.svd(delta, compute_uv=False)
        assert (sv[r2:] < 1e-10 * sv[0]).all()
        assert marginal_rank(
            marginal_13(joint_from_chain(params))) <= r2


def test_monotonicity_in_r2_by_witness_embedding():
    for seed in range(50):
        params = seeded_chain((3, 2, 3), 1500 + seed)
        target = marginal_13(joint_from_chain(params))
        report = consistency_check(target, r2=2, seed=seed)
        assert report.feasible
        w = report.witness
        # embed: dead third latent state, uniform emission row
        a = np.hstack([w.a, np.zeros((3, 1))])
        b = np.vstack([w.b, np.full((1, 3), 1 / 3)])
        embedded = ChainParams(Shape(3, 3, 3), w.p1, a, b)
        emb_marg = marginal_13(joint_from_chain(embedded))
        assert kl_divergence(target, emb_marg) < report.tol


# ---------------------------------------------------------------- counting

def test_constraint_count_golden():
    for shape, count in (((3, 2, 3), 1), ((4, 3, 4), 1), ((5, 2, 4), 6)):
        got = dims(Shape(*shape))
        assert (got.constraint_count, got.case) == (count, DimsCase.R2_SMALL)
    got = dims(Shape(2, 3, 2))
    assert got.constraint_count == 0 and got.case is DimsCase.R2_LARGE


def test_is_regular():
    from latentgeom import is_regular
    sh = Shape(2, 2, 2)
    interior = seeded_chain((2, 2, 2), 1)
    assert is_regular(interior)
    a_zero = ChainParams(sh, [0.5, 0.5], [[0.0, 1.0], [0.6, 0.4]],
                         [[0.3, 0.7], [0.8, 0.2]])
    assert is_regular(a_zero)  # b still positive
    both = ChainParams(sh, [0.5, 0.5], [[0.0, 1.0], [0.6, 0.4]],
                       [[0.0, 1.0], [0.8, 0.2]])
    assert not is_regular(both)
