"""Closed-form consistency verdicts against the value types, bitwise.

``_reference_witness`` and ``_reference_verdict`` are the closed-form
branch written with the value types: the witness built as a checked
``ChainParams`` and its divergence computed through ``joint_from_chain``,
``marginal_13`` and ``kl_divergence``.  Every report field must be the
same bits, and the verdict must make no such round trip and run no row
test: the witness's rows carry the proof of ``_unit_chains``.  The
rank proof's divergence bound is checked against chains near the target.
"""

import math
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from latentgeom import (  # noqa: E402
    ChainParams,
    InvalidParameter,
    JointTable,
    MarginalTable,
    Shape,
    consistency_check,
    joint_from_chain,
    kl_divergence,
    marginal_13,
    marginal_rank,
)
from latentgeom import identifiability, model  # noqa: E402
from conftest import seeded_chain, seeded_marginal  # noqa: E402
from test_nested_polygon import SQUARE_SLACK, rank_three_marginals  # noqa: E402

SEEDS = st.integers(0, 2 ** 32 - 1)
EPS = float(np.finfo(float).eps)


def _reference_witness(target, r2, rank):
    r1, r3 = target.shape
    p1 = target.cells.sum(axis=1)
    live = p1 > 0.0
    rows = target.cells[live] / p1[live, None]
    a, b = np.zeros((r1, r2)), np.full((r2, r3), 1.0 / r3)
    a[~live] = 1.0 / r2
    if r2 >= r3:
        a[live, :r3] = rows
        b[:r3] = np.eye(r3)
    elif r2 >= r1:
        a = np.eye(r1, r2)
        b[np.flatnonzero(live)] = rows
    elif rank <= 2:
        centred = rows - rows.mean(axis=0)
        s = rows @ np.linalg.svd(centred, full_matrices=False)[2][0]
        lo, hi = int(np.argmin(s)), int(np.argmax(s))
        span = s[hi] - s[lo]
        t = (s - s[lo]) / span if span > 0.0 else np.ones(len(s))
        b[0], b[1] = rows[lo], rows[hi]
        a[live, :2] = np.column_stack([1.0 - t, t])
    elif (polygon := identifiability._nested_polygon(rows, r2)) is None:
        return None
    else:
        b[:len(polygon[0])], a[live] = polygon
    a /= a.sum(axis=1, keepdims=True)
    b /= b.sum(axis=1, keepdims=True)
    return ChainParams(Shape(r1, r2, r3), p1 / p1.sum(), a, b)


def _reference_bound(target, r2):
    r1, r3 = target.shape
    if r2 >= min(r1, r3):
        return 0.0
    sv = np.linalg.svd(target.cells, compute_uv=False)
    return max(math.fsum(s * s for s in sv[r2:]) / 2
               - 4 * r1 * r3 * EPS * (2.0 + math.log(r1 * r3)), 0.0)


def _reference_verdict(target, r2, tol=1e-8):
    """The closed-form report, or None where the rank or the search decides."""
    r1, r3 = target.shape
    rank = 0 if r2 >= min(r1, r3) else marginal_rank(target)
    if rank > r2 or rank > 3:
        return None
    witness = _reference_witness(target, r2, rank)
    if witness is None:
        return None
    best = kl_divergence(target, marginal_13(joint_from_chain(witness)))
    if not (rank <= 2 or best < tol):
        return None
    return identifiability.ConsistencyReport(
        feasible=bool(best < tol), best_divergence=best, witness=witness,
        necessary_checks={"rank": True}, proven_infeasible_by=None, tol=tol,
        divergence_bound=_reference_bound(target, r2))


def _bits(x):
    if isinstance(x, float):
        return np.float64(x).tobytes()
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes(), x.flags.writeable)
    if isinstance(x, ChainParams):
        return (x.shape, _bits(x.p1), _bits(x.a), _bits(x.b))
    if isinstance(x, tuple):
        return tuple(map(_bits, x))
    return type(x), x


def _report_bits(report):
    return {name: _bits(getattr(report, name)) for name in (
        "feasible", "best_divergence", "witness", "necessary_checks",
        "proven_infeasible_by", "tol", "divergences", "restart_iterations",
        "divergence_bound")}


def _assert_as_reference(target, r2, expected):
    assert _report_bits(consistency_check(target, r2)) == _report_bits(expected)


def _weights(draw, n, m):
    flat = draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m))
    return np.array(flat, dtype=float).reshape(n, m)


@st.composite
def closed_form_targets(draw):
    """(target, r2) pairs that a construction decides: rank 1 and rank 2
    targets of interior or boundary chains, with zero rows and columns, and
    small integer tables at r2 >= r3 or r2 >= r1."""
    r1, r3 = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["interior", "boundary", "rank one", "wide"]))
    if kind == "interior":
        params = seeded_chain((r1, 2, r3), draw(SEEDS))
        cells, r2 = marginal_13(joint_from_chain(params)).cells, 2
    elif kind == "boundary":
        p1, a, b = (_weights(draw, n, m) for n, m in ((1, r1), (r1, 2), (2, r3)))
        assume(p1.sum() > 0 and (a.sum(axis=1) > 0).all()
               and (b.sum(axis=1) > 0).all())
        cells = (p1[0, :, None] * a / a.sum(axis=1, keepdims=True)) @ (
            b / b.sum(axis=1, keepdims=True))
        r2 = 2
    elif kind == "rank one":
        rows, cols = _weights(draw, r1, 1), _weights(draw, 1, r3)
        cells, r2 = rows @ cols, draw(st.integers(2, 4))
    else:
        cells, r2 = _weights(draw, r1, r3), draw(st.integers(min(r1, r3), 7))
    assume(cells.sum() > 0)
    return MarginalTable((r1, r3), cells / cells.sum()), r2


@settings(max_examples=400, deadline=None)
@given(case=closed_form_targets())
def test_closed_form_verdicts_are_the_value_types_bits(case):
    expected = _reference_verdict(*case)
    assume(expected is not None)
    _assert_as_reference(*case, expected)


@settings(max_examples=100, deadline=None)
@given(target=rank_three_marginals(4))
def test_nested_polygon_verdicts_are_the_value_types_bits(target):
    expected = _reference_verdict(target, 3)
    assume(expected is not None)
    _assert_as_reference(target, 3, expected)


def _assert_witness_rows_proven(target, r2):
    r1, r3 = target.shape
    rank = 0 if r2 >= min(r1, r3) else marginal_rank(target)
    assume(rank <= min(r2, 3))
    found = identifiability._exact_witness(target, r2, rank)
    assume(found is not None)
    p1, a, b = found
    (witness,) = model._unit_chains(Shape(r1, r2, r3), p1, a[None], b[None])
    assert witness.p1 is p1     # built unchecked: the checks would copy p1


@settings(max_examples=400, deadline=None)
@given(case=closed_form_targets())
def test_closed_form_witness_rows_carry_their_proof(case):
    _assert_witness_rows_proven(*case)


@settings(max_examples=100, deadline=None)
@given(target=rank_three_marginals(4))
def test_nested_polygon_witness_rows_carry_their_proof(target):
    _assert_witness_rows_proven(target, 3)


@pytest.mark.parametrize("scale", [0.3, (2 ** 0.5 - 1) * (1 - 1e-9)])
def test_shrunk_square_verdicts_are_the_value_types_bits(scale):
    rows = scale * SQUARE_SLACK + (1.0 - scale) * SQUARE_SLACK.mean(axis=0)
    target = MarginalTable((4, 4), rows / rows.sum())
    expected = _reference_verdict(target, 3)
    assert expected is not None
    _assert_as_reference(target, 3, expected)


def _spy(monkeypatch):
    """Count SVDs, value-type checks, unchecked ``ChainParams`` and the
    row tests that ``identifiability`` runs itself."""
    counts = Counter()

    def counting(name, real):
        def spy(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    for cls in (ChainParams, JointTable, MarginalTable):
        monkeypatch.setattr(cls, "__post_init__",
                            counting(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(ChainParams, "_checked", staticmethod(
        counting("_checked", ChainParams._checked)))
    monkeypatch.setattr(identifiability, "_stochastic",
                        counting("_stochastic", identifiability._stochastic))
    return counts


@pytest.mark.parametrize("target, r2, svds", [
    (marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 2701))), 2, 2),
    (marginal_13(joint_from_chain(seeded_chain((5, 2, 5), 2702))), 2, 2),
    (MarginalTable((4, 5), np.outer([0.125, 0.125, 0.25, 0.5],
                                    [0.5, 0.125, 0.125, 0.125, 0.125])), 2, 2),
    (seeded_marginal((4, 6), 2703), 4, 0),
    (seeded_marginal((5, 3), 2704), 3, 0),
    (marginal_13(joint_from_chain(seeded_chain((6, 3, 6), 2705))), 3, 2),
])
def test_closed_form_verdict_makes_no_round_trip(monkeypatch, target, r2, svds):
    counts = _spy(monkeypatch)
    report = consistency_check(target, r2)
    assert report.feasible and report.restarts_tried == 0
    assert counts["_stochastic"] == 0
    assert counts == Counter({"svd": svds, "_checked": 1} if svds else {"_checked": 1})
    assert type(report.witness) is ChainParams
    assert not any(x.flags.writeable for x in (
        report.witness.p1, report.witness.a, report.witness.b))


#: (target, r2) whose witness misses exactly one of five sums by the most:
#: those of p1, a and b, its joint and its marginal
ONE_FAILING_CHECK = {
    "p1": (lambda: marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 62))), 2),
    "a": (lambda: seeded_marginal((4, 3), 43), 3),
    "b": (lambda: marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 26))), 2),
    "joint": (lambda: marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 7))), 2),
    "marginal": (lambda: marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 9))), 2),
}


def _deviations(witness):
    cells = joint_from_chain(witness).cells
    blocks = {"p1": witness.p1[None], "a": witness.a, "b": witness.b,
              "joint": cells.reshape(1, -1),
              "marginal": cells.sum(axis=1).reshape(1, -1)}
    return {name: float(np.abs(np.abs(x).sum(axis=-1) - 1.0).max())
            for name, x in blocks.items()}


def _sum_tol_below(monkeypatch, failing):
    """The target, r2 and witness of ``ONE_FAILING_CHECK[failing]``, with
    SUM_TOL set to the largest deviation of the other four sums."""
    build, r2 = ONE_FAILING_CHECK[failing]
    target = build()
    witness = _reference_witness(target, r2, marginal_rank(target))
    deviations = _deviations(witness)
    sum_tol = max(d for name, d in deviations.items() if name != failing)
    assert deviations[failing] > sum_tol
    monkeypatch.setattr(model, "SUM_TOL", sum_tol)
    return target, r2, witness


@pytest.mark.parametrize("failing", ["p1", "a", "b"])
def test_a_failed_mask_raises_the_value_type_error(monkeypatch, failing):
    target, r2, witness = _sum_tol_below(monkeypatch, failing)
    with pytest.raises(InvalidParameter) as expected:
        marginal_13(joint_from_chain(ChainParams(
            witness.shape, witness.p1, witness.a, witness.b)))
    counts = _spy(monkeypatch)
    with pytest.raises(InvalidParameter) as raised:
        consistency_check(target, r2)
    assert str(raised.value) == str(expected.value)
    assert counts["_checked"] == 0      # no witness before the masks pass


@pytest.mark.parametrize("past", ["joint", "marginal"])
def test_table_sums_past_sum_tol_are_accepted_as_by_the_value_types(
        monkeypatch, past):
    # a chain's tables are built from its checked rows and not checked
    # again: the value types accept the witness whatever its joint or
    # marginal sums to, and consistency_check reports the same bits
    target, r2, witness = _sum_tol_below(monkeypatch, past)
    marginal_13(joint_from_chain(ChainParams(
        witness.shape, witness.p1, witness.a, witness.b)))     # raises nothing
    expected = _reference_verdict(target, r2)
    assert expected is not None
    _assert_as_reference(target, r2, expected)


# ---------------------------------------------------------------- rank bound

def test_rank_proof_needs_the_bound_above_tol_by_its_margin():
    target = seeded_marginal((3, 3), 20260809)
    sv = np.linalg.svd(target.cells, compute_uv=False)
    half_sum = float(sv[2] ** 2) / 2
    margin = 4 * 9 * EPS * (2.0 + math.log(9))
    proven = consistency_check(target, 2, tol=half_sum - 2 * margin)
    assert proven.proven_infeasible_by == "rank"
    assert proven.divergence_bound == half_sum - margin
    # within the margin the rounding cannot tell: the search decides
    unproven = consistency_check(target, 2, tol=half_sum - margin / 2,
                                 restarts=1, maxiter=1)
    assert unproven.proven_infeasible_by is None
    assert unproven.necessary_checks == {"rank": True}
    assert unproven.restarts_tried == 1


@st.composite
def near_rank_two_targets(draw):
    """A rank-2 chain marginal moved by eps sigma_1 along its third singular
    pair, eps log-uniform in [1e-7, 1e-2], and its truncation to rank 2."""
    r1, r3 = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    base = marginal_13(joint_from_chain(seeded_chain((r1, 2, r3), draw(SEEDS)))).cells
    u, sv, vt = np.linalg.svd(base)
    eps = 10.0 ** draw(st.floats(-7.0, -2.0))
    cells = base + eps * sv[0] * np.outer(u[:, 2], vt[2])
    assume((cells > 0).all())
    cells /= cells.sum()
    u, sv, vt = np.linalg.svd(cells, full_matrices=False)
    truncated = (u[:, :2] * sv[:2]) @ vt[:2]
    assume((truncated > 0).all())
    return (MarginalTable((r1, r3), cells),
            MarginalTable((r1, r3), truncated / truncated.sum()))


@settings(max_examples=300, deadline=None)
@given(case=near_rank_two_targets())
def test_no_rank_proof_beside_a_chain_within_tol(case):
    # the truncated target's segment witness is a chain with two hidden
    # states; the bound sits below its divergence, and a rank proof never
    # stands beside a divergence under tol
    target, truncated = case
    chain = consistency_check(truncated, 2).witness
    kl = kl_divergence(target, marginal_13(joint_from_chain(chain)))
    report = consistency_check(target, 2, restarts=1, maxiter=1)
    assert report.divergence_bound <= kl
    assert not (report.proven_infeasible_by == "rank" and kl < report.tol)
