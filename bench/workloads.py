"""The benchmark's three workloads: seeded inputs, operations and checks.

A workload is a pool of distinct *rounds* of operations drawn from the
seed; the harness in ``run.py`` replays the whole pool ``replays`` times in
a closed loop (one client, next call only after the previous one returned)
and sizes the pool so that this takes about the run's seconds, at
``round_s`` seconds per round and replay, its checks and its share of the
cold starts included (measured on a 2-vCPU x86-64 VM whose host factor
was near 1, see ``hostclock``).  Every
operation is checked against a truth known from how its input was built.
A check reports problems as ``(severity, message)`` pairs:

* ``wrong``: the output contradicts the truth or a guarantee the library
  documents (a rank, a dimension, a proven verdict, a certificate, a
  byte-identical CLI stdout);
* ``miss``: a feasible-by-construction ``search_hit`` target left
  uncertified after the whole search budget.  The library reports this as "not found", not as
  "proven infeasible", so it counts as a failed operation but not as a
  wrong output.

Inputs are drawn with the benchmark's own numpy code, never with the
library's generators, so that a change to the library cannot change them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from latentgeom import cli, fiber, identifiability, likelihood, model, reparam
from latentgeom.errors import RejectionStall

#: rows of every drawn chain keep all entries above this, so the chains are
#: interior with margin and ranks and fiber vertices are well posed
CHAIN_FLOOR = 1e-3
#: sets whose first replay the cli stdout digest covers
DIGEST_SETS = 16
#: the cli consistency marginal is the same for every seed, drawn from this
#: seed, so that the subcommand always takes the early-exit path with the
#: same search.  How the search's cost varies with the target, a heavy tail,
#: is measured by the consistency workload's search_hit class.
CLI_TARGET_SEED = 0

#: max |ci_residuals| of the joint table of an exact chain
CI_TOL = 1e-12
#: max change of any marginal cell when moving along the fiber
DRIFT_TOL = 1e-12
#: max difference between solved and true hidden conditionals (3x2x3)
FIELD_TOL = 1e-8
#: relative agreement of log-likelihoods and flatness of profile ridges
LL_TOL = 1e-9
#: fig3 intersection point against the generating conditionals
POINT_TOL = 1e-8

LADDER = ((3, 2, 3), (5, 2, 5), (10, 3, 10), (30, 5, 30))
FIBER_POINTS = 10
CONSISTENCY_CLASSES = ("search_hit", "proven", "exact", "search_exhausted")
#: search_hit shapes, each with the number of rounds per target: 6x3x6
#: searches cost 35 to 160 ms at the median of one seed's targets and 210 ms
#: on average (a few restart dozens of times), so one in eight rounds keeps
#: them from setting the run length and, through their class median, the
#: figures of a seed
SEARCH_HIT_SHAPES = (((3, 2, 3), 1), ((5, 2, 5), 1), ((6, 3, 6), 8))
#: rounds per search_exhausted target
EXHAUSTED_EVERY = 4
PROVEN_SHAPES = ((3, 3, 2), (5, 5, 2), (6, 6, 3))      # (r1, r3, r2), r2 < min
EXACT_SHAPES = ((3, 3, 3), (4, 6, 4), (5, 3, 3))       # (r1, r3, r2), r2 >= min
FIT_SHAPES = ((3, 2, 3), (5, 2, 5))
FITS_PER_SHAPE = 2
FIT_COUNTS = 1000
CLI_FIBER_POINTS = 50
EM_MAXITER = 500
PROFILE_STEPS = 17
#: slack matrix of the unit square: rank 3, nonnegative rank 4
SQUARE_SLACK = np.array([[0.0, 1.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0, 1.0],
                         [1.0, 0.0, 1.0, 0.0],
                         [0.0, 1.0, 1.0, 0.0]])

Problems = list[tuple[str, str]]


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``kind`` names the operation class (``chain``, ``search_hit``, a CLI
    subcommand, ...), ``label`` its input size.  ``check`` returns the
    problems found and adds to the run's counters.
    """

    kind: str
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Counter], Problems]


def _label(shape: tuple[int, ...]) -> str:
    return "x".join(str(v) for v in shape)


# ---------------------------------------------------------------------------
# input generation and independent reference arithmetic

def _row(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        row = rng.dirichlet(np.ones(n))
        if row.min() > CHAIN_FLOOR:
            return row


def draw_chain(rng: np.random.Generator, shape: tuple[int, int, int]) -> model.ChainParams:
    r1, r2, r3 = shape
    return model.ChainParams(
        model.Shape(r1, r2, r3), _row(rng, r1),
        np.vstack([_row(rng, r2) for _ in range(r1)]),
        np.vstack([_row(rng, r3) for _ in range(r2)]))


def chain_marginal(params: model.ChainParams) -> np.ndarray:
    return (params.p1[:, None] * params.a) @ params.b


def _generic_table(rng: np.random.Generator, r1: int, r3: int) -> np.ndarray:
    """A positive r1 x r3 table of full rank, well away from rank loss."""
    while True:
        cells = rng.dirichlet(np.ones(r1 * r3)).reshape(r1, r3)
        sv = np.linalg.svd(cells, compute_uv=False)
        if cells.min() > CHAIN_FLOOR / (r1 * r3) and sv[-1] > 1e-3 * sv[0]:
            return cells


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    if (q[mask] <= 0.0).any():
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _loglik(counts: np.ndarray, params: model.ChainParams) -> float:
    delta = chain_marginal(params)
    mask = counts > 0
    return float(np.sum(counts[mask] * np.log(delta[mask])))


def _close(x: float, y: float, tol: float = LL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# geometry: rank and loop kernels on known interior chains, no EM

@dataclass
class _ChainInput:
    params: model.ChainParams
    q: fiber.MixingMatrix | None     # interior fiber move, used when r2 > 2
    seed: int                        # sample_fiber seed


def _interior_mixing(rng: np.random.Generator,
                     params: model.ChainParams) -> fiber.MixingMatrix:
    r2 = params.shape.r2
    m = rng.standard_normal((r2, r2))
    m -= m.mean(axis=1, keepdims=True)
    t = 0.5
    while True:
        q = np.eye(r2) + t * m
        if abs(np.linalg.det(q)) > 1e-3 \
                and (params.a @ np.linalg.inv(q)).min() > 0.0 \
                and (q @ params.b).min() > 0.0:
            return fiber.MixingMatrix(q)
        t /= 2.0


class Geometry:
    """One operation audits one chain; a round is one chain per ladder shape."""

    name = "geometry"
    replays = 3
    #: most of the time goes to the dense SVDs of 30x5x30 Jacobians
    reference = ("python", "dense")
    round_s = 0.15

    def __init__(self, seed: int, workdir: Path, pool: int):
        rng = np.random.default_rng([seed, 1])
        self.pool = {}
        for shape in LADDER:
            items = []
            for _ in range(pool):
                params = draw_chain(rng, shape)
                q = _interior_mixing(rng, params) if shape[1] > 2 else None
                items.append(_ChainInput(params, q, int(rng.integers(2 ** 31))))
            self.pool[shape] = items

    def round(self, r: int) -> list[Op]:
        return [self._op(items[r]) for items in self.pool.values()]

    @staticmethod
    def _op(item: _ChainInput) -> Op:
        p = item.params
        shape = p.shape

        def run(tr):
            joint = tr.call("model.joint_from_chain", model.joint_from_chain, p)
            residuals = tr.call("model.ci_residuals", model.ci_residuals, joint)
            marginal, lambdas = tr.call("reparam.split", reparam.split, joint)
            z = tr.call("reparam.cross_ratios", reparam.cross_ratios, marginal)
            field = None
            if shape.astuple() == (3, 2, 3):
                field = tr.call("reparam.solve_fiber_323", reparam.solve_fiber_323,
                                z, float(lambdas.values[1, 0, 0]),
                                float(lambdas.values[1, 1, 0]))
            dims = tr.call("model.dims", model.dims, shape)
            rank = tr.call("model.jacobian_rank", model.jacobian_rank, p)
            orbit = tr.call("fiber.fiber_dimension", fiber.fiber_dimension, p)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                points = tr.call("fiber.sample_fiber", fiber.sample_fiber,
                                 p, FIBER_POINTS, seed=item.seed)
            vertex = None
            q = item.q
            if shape.r2 == 2:
                vertex = tr.call("fiber.extreme_mixings", fiber.extreme_mixings, p)[0]
                q = vertex.q
            moved = tr.call("fiber.apply_mixing", fiber.apply_mixing, p, q)
            stalls = sum(issubclass(w.category, RejectionStall) for w in caught)
            return dict(residuals=residuals, lambdas=lambdas, field=field,
                        dims=dims, rank=rank, orbit=orbit, points=points,
                        stalls=stalls, vertex=vertex, moved=moved)

        def check(out, counters: Counter) -> Problems:
            problems: Problems = []
            r1, r2, r3 = shape.astuple()
            counters["fiber.sample_fiber.stalls"] += out["stalls"]
            worst = float(np.abs(out["residuals"]).max())
            if not worst < CI_TOL:
                problems.append(("wrong", f"max |ci_residuals| {worst:.3e} >= {CI_TOL}"))
            t = r1 * r2 + r2 * r3 - r2 - 1
            if out["dims"].t != t:
                problems.append(("wrong", f"dims.t {out['dims'].t} != {t}"))
            if out["rank"] != out["dims"].t:
                problems.append(("wrong", f"jacobian_rank {out['rank']} != dims.t {out['dims'].t}"))
            if out["orbit"] != out["dims"].fiber:
                problems.append(("wrong", f"fiber_dimension {out['orbit']} != dims.fiber {out['dims'].fiber}"))
            if out["field"] is not None:
                err = float(np.abs(out["field"].values - out["lambdas"].values).max())
                if not err < FIELD_TOL:
                    problems.append(("wrong", f"solve_fiber_323 field off by {err:.3e}"))
            base = chain_marginal(p)
            points = out["points"]
            if len(points) != FIBER_POINTS and out["stalls"] == 0:
                problems.append(("wrong", f"sample_fiber gave {len(points)} points without a stall"))
            for moved in (*points, out["moved"]):
                drift = float(np.abs(chain_marginal(moved) - base).max())
                if not drift < DRIFT_TOL:
                    problems.append(("wrong", f"marginal drift {drift:.3e} along the fiber"))
                    break
            if out["vertex"] is not None:
                for mat, i, j in out["vertex"].zeros:
                    value = getattr(out["moved"], mat)[i, j]
                    if value != 0.0:
                        problems.append(("wrong", f"vertex zero {mat}[{i},{j}] = {value!r}"))
            return problems

        return Op("chain", _label(shape.astuple()), run, check)


# ---------------------------------------------------------------------------
# consistency: reachability of (Y1, Y3) targets with known truth, and fits

class Consistency:
    """A round holds one search_hit target at 3x2x3 and at 5x2x5, two
    proven and two exact targets and two fits per fit shape; every fourth
    round adds one search_exhausted target and every eighth one a 6x3x6
    search_hit target.  Each operation runs once (no replays): the costs
    vary far more from input to input than from run to run, so a run is
    better spent on more distinct inputs.

    Budget-exhausting searches all do the same work, and a run holds about
    twenty of them and only a few early-exit searches that cost more, so
    the tail (the eleventh-slowest operation) falls near the middle of the
    budget-exhausting ones rather than at the edge of a heavy-tailed
    class.  The cheap proven and exact verdicts put the median in the lower
    half of the early-exit searches and fits."""

    name = "consistency"
    replays = 1
    reference = ("python",)
    round_s = 0.30

    def __init__(self, seed: int, workdir: Path, pool: int):
        rng = np.random.default_rng([seed, 2])
        self.rounds = [self._draw_round(rng, r) for r in range(pool)]

    def round(self, r: int) -> list[Op]:
        return self.rounds[r]

    def _draw_round(self, rng: np.random.Generator, r: int) -> list[Op]:
        ops = []
        for shape, every in SEARCH_HIT_SHAPES:
            if r % every == every - 1:
                cells = chain_marginal(draw_chain(rng, shape))
                ops.append(self._check_op("search_hit", _label(shape), cells,
                                          shape[1], rng, feasible=True))
        for k in (2 * r, 2 * r + 1):
            r1, r3, r2 = PROVEN_SHAPES[k % len(PROVEN_SHAPES)]
            ops.append(self._check_op("proven", f"{r1}x{r3} r2={r2}",
                                      _generic_table(rng, r1, r3), r2, rng, feasible=False))
            r1, r3, r2 = EXACT_SHAPES[k % len(EXACT_SHAPES)]
            ops.append(self._check_op("exact", f"{r1}x{r3} r2={r2}",
                                      _generic_table(rng, r1, r3), r2, rng, feasible=True))
        for shape in FIT_SHAPES:
            for _ in range(FITS_PER_SHAPE):
                ops.append(self._fit_op(shape, rng))
        if r % EXHAUSTED_EVERY == 0:
            slack = SQUARE_SLACK[rng.permutation(4)][:, rng.permutation(4)]
            ops.append(self._check_op("search_exhausted", "4x4 r2=3",
                                      slack / slack.sum(), 3, rng, feasible=False))
        return ops

    @staticmethod
    def _check_op(kind: str, label: str, cells: np.ndarray, r2: int,
                  rng: np.random.Generator, feasible: bool) -> Op:
        target = model.MarginalTable(cells.shape, cells)
        seed = int(rng.integers(2 ** 31))

        def run(tr):
            return tr.call("identifiability.consistency_check",
                           identifiability.consistency_check, target, r2, seed=seed)

        def check(report, counters: Counter) -> Problems:
            if feasible:
                counters["feasible_targets"] += 1
                counters["certified"] += bool(report.feasible)
            if report.feasible:
                if not feasible:
                    return [("wrong", "feasible verdict on an infeasible target")]
                if report.witness is None:
                    return [("wrong", "feasible verdict without a witness")]
                kl = _kl(cells, chain_marginal(report.witness))
                if not kl < report.tol:
                    return [("wrong", f"witness KL {kl:.3e} >= tol {report.tol:.1e}")]
                return []
            if kind == "proven":
                if report.proven_infeasible_by != "rank":
                    return [("wrong", f"proven_infeasible_by {report.proven_infeasible_by!r}, expected 'rank'")]
                return []
            if report.proven_infeasible_by is not None:
                return [("wrong", f"feasible-or-unprovable target proven infeasible by {report.proven_infeasible_by!r}")]
            if kind == "exact":
                # decided by a construction, not by a search: no budget to miss
                return [("wrong", "r2 >= min(r1, r3) target not certified feasible")]
            if feasible:
                return [("miss", f"not certified: best divergence {report.best_divergence:.3e}")]
            return []

        return Op(kind, label, run, check)

    @staticmethod
    def _fit_op(shape: tuple[int, int, int], rng: np.random.Generator) -> Op:
        params = draw_chain(rng, shape)
        r1, _, r3 = shape
        draws = rng.multinomial(FIT_COUNTS, chain_marginal(params).ravel()).reshape(r1, r3)
        counts = likelihood.CountTable((r1, r3), draws)
        fit_shape = model.Shape(*shape)
        seed = int(rng.integers(2 ** 31))
        observed = draws[draws > 0]
        saturated = float(np.sum(observed * np.log(observed / FIT_COUNTS)))

        def run(tr):
            fit = tr.call("likelihood.em_fit_details", likelihood.em_fit_details,
                          counts, fit_shape, seed=seed, maxiter=EM_MAXITER)
            ll = tr.call("likelihood.loglik", likelihood.loglik, counts, fit.params)
            # the fitted parameters may sit on the boundary, where no fiber
            # vertex exists; the generating chain is interior by construction
            vertex = tr.call("fiber.extreme_mixings", fiber.extreme_mixings, params)[0]
            ridge = tr.call("likelihood.profile_along_fiber",
                            likelihood.profile_along_fiber,
                            counts, params, vertex.q, PROFILE_STEPS)
            return fit, ll, ridge

        def check(out, counters: Counter) -> Problems:
            fit, ll, ridge = out
            counters["em_calls"] += 1
            counters["em_iterations"] += fit.iterations
            counters["em_converged"] += bool(fit.converged)
            problems: Problems = []
            own = _loglik(draws, fit.params)
            if not (_close(fit.loglik, own) and _close(ll, own)):
                problems.append(("wrong", f"loglik {fit.loglik!r} / {ll!r} != recomputed {own!r}"))
            if fit.loglik > saturated + LL_TOL * abs(saturated):
                problems.append(("wrong", f"loglik {fit.loglik!r} above the saturated {saturated!r}"))
            if not 0 <= fit.iterations <= EM_MAXITER:
                problems.append(("wrong", f"iterations {fit.iterations} outside [0, {EM_MAXITER}]"))
            if not ridge.range <= LL_TOL * max(1.0, abs(ridge.loglik[0])):
                problems.append(("wrong", f"profile ridge not flat: range {ridge.range:.3e}"))
            return problems

        return Op("fit", _label(shape), run, check)


# ---------------------------------------------------------------------------
# cli: a fixed script of every subcommand on small seeded files

def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")][1:]


def _model_json(params: model.ChainParams) -> str:
    return json.dumps({"shape": list(params.shape.astuple()),
                       "p1": params.p1.tolist(), "a": params.a.tolist(),
                       "b": params.b.tolist()})


class _CliSet:
    """Input files for one replay of the script, with their known truths.

    The direct library calls that parsed stdout must agree with are made on
    first use, in the untimed check of the set's first replay.
    """

    def __init__(self, rng: np.random.Generator, workdir: Path, target: Path,
                 target_report: identifiability.ConsistencyReport):
        self.target_report = target_report
        self.params = draw_chain(rng, (3, 2, 3))
        binary = draw_chain(rng, (2, 2, 2))
        self.seed = int(rng.integers(2 ** 31))
        self.draws = rng.multinomial(FIT_COUNTS, chain_marginal(self.params).ravel()).reshape(3, 3)
        self.marginal = chain_marginal(self.params)

        # fig3 slices the fiber of a binary chain: its own conditionals
        # lam(1,1), lam(2,2) are one of the intersection points
        theta = np.einsum("i,ij,jk->ijk", binary.p1, binary.a, binary.b)
        delta = theta.sum(axis=1)
        lam = theta[:, 0, :] / delta
        z = delta[0, 0] * delta[1, 1] / (delta[0, 1] * delta[1, 0])
        self.fig3_args = [format(v, ".17g") for v in (z, lam[1, 0], lam[0, 1])]
        self.fig3_truth = (float(lam[0, 0]), float(lam[1, 1]))

        workdir.mkdir(parents=True, exist_ok=True)
        model_path = workdir / "model.json"
        counts_path = workdir / "counts.csv"
        model_path.write_text(_model_json(self.params) + "\n", encoding="utf-8")
        counts_path.write_text(
            "i,k,count\n" + "".join(f"{i + 1},{k + 1},{self.draws[i, k]}\n"
                                    for i in range(3) for k in range(3)),
            encoding="utf-8")
        m, c, s = str(model_path), str(counts_path), str(self.seed)
        self.argv = {
            "dims": ["dims", "3", "2", "3"],
            "check": ["check", m],
            "fig3": ["fig3", "--z", self.fig3_args[0], "--c1", self.fig3_args[1],
                     "--c2", self.fig3_args[2]],
            "fiber": ["fiber", m, "--n", str(CLI_FIBER_POINTS), "--seed", s],
            "vertices": ["vertices", m],
            "consistency": ["consistency", str(target), "--r2", "2"],
            "profile": ["profile", c, m],
            "emfit": ["emfit", c, "3", "2", "3", "--seed", s],
        }
        self.ref: dict[str, Any] | None = None
        self.first_stdout: dict[str, str] = {}

    def _library(self) -> dict[str, Any]:
        if self.ref is None:
            shape = model.Shape(3, 2, 3)
            counts = likelihood.CountTable((3, 3), self.draws)
            vertices = fiber.extreme_mixings(self.params)
            self.ref = {
                "dims": model.dims(shape),
                "residuals": model.ci_residuals(model.joint_from_chain(self.params)),
                "fig3": reparam.binary_fiber_solve(*(float(v) for v in self.fig3_args)),
                "fiber": fiber.sample_fiber(self.params, CLI_FIBER_POINTS, seed=self.seed),
                "vertices": vertices,
                "profile": likelihood.profile_along_fiber(
                    counts, self.params, vertices[0].q, 33),
                "emfit": likelihood.em_fit_details(counts, shape, seed=self.seed),
            }
        return self.ref

    def op(self, sub: str) -> Op:
        argv = self.argv[sub]

        def run(tr):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tr.call("cli.main", cli.main, list(argv))
            return code, out.getvalue()

        def check(result, counters: Counter) -> Problems:
            code, stdout = result
            if code != 0:
                return [("wrong", f"exit code {code}")]
            first = self.first_stdout.setdefault(sub, stdout)
            if stdout != first:
                return [("wrong", "stdout differs from the set's first replay")]
            return getattr(self, f"_check_{sub}")(stdout, self._library())

        return Op(sub, "3x2x3", run, check)

    def _check_dims(self, stdout: str, ref) -> Problems:
        d = ref["dims"]
        expected = {"d": d.d, "t": d.t, "s": d.s, "m": d.m, "fiber": d.fiber,
                    "case": d.case.value, "constraints": d.constraint_count}
        got = json.loads(stdout)
        return [] if got == expected else [("wrong", f"dims {got} != {expected}")]

    def _check_check(self, stdout: str, ref) -> Problems:
        got = json.loads(stdout)
        problems = []
        if got["ci_residuals"]["values"] != ref["residuals"].tolist():
            problems.append("ci_residuals differ from the library call")
        if not got["ci_residuals"]["max_abs"] < CI_TOL:
            problems.append(f"max |ci_residuals| {got['ci_residuals']['max_abs']:.3e} >= {CI_TOL}")
        if not np.allclose(got["marginal"], self.marginal.ravel(), rtol=0, atol=DRIFT_TOL):
            problems.append("marginal differs from the chain's")
        return [("wrong", msg) for msg in problems]

    def _check_fig3(self, stdout: str, ref) -> Problems:
        points = [(float(x), float(y)) for curve, x, y in _csv_rows(stdout)
                  if curve == "intersection"]
        problems = []
        if points != [tuple(p) for p in ref["fig3"].points]:
            problems.append(f"intersections {points} differ from the library call")
        u, v = self.fig3_truth
        if not any(abs(x - u) < POINT_TOL and abs(y - v) < POINT_TOL for x, y in points):
            problems.append(f"generating point ({u!r}, {v!r}) not among {points}")
        return [("wrong", msg) for msg in problems]

    def _check_fiber(self, stdout: str, ref) -> Problems:
        got = json.loads(stdout)
        if len(got) != len(ref["fiber"]):
            return [("wrong", f"{len(got)} fiber points, library gave {len(ref['fiber'])}")]
        for point, expected in zip(got, ref["fiber"]):
            params = model.ChainParams(model.Shape(*point["shape"]),
                                       point["p1"], point["a"], point["b"])
            if not (np.array_equal(params.a, expected.a)
                    and np.array_equal(params.b, expected.b)):
                return [("wrong", "fiber point differs from the library call")]
            drift = float(np.abs(chain_marginal(params) - self.marginal).max())
            if not drift < DRIFT_TOL:
                return [("wrong", f"fiber point moves the marginal by {drift:.3e}")]
        return []

    def _check_vertices(self, stdout: str, ref) -> Problems:
        got = [(v["pi"], v["rho"], v["branch"]) for v in json.loads(stdout)]
        expected = [(float(v.q.q[0, 0]), float(v.q.q[1, 0]), v.branch)
                    for v in ref["vertices"]]
        return [] if got == expected else [("wrong", f"vertices {got} != {expected}")]

    def _check_consistency(self, stdout: str, ref) -> Problems:
        got = json.loads(stdout)
        report = self.target_report
        problems: Problems = []
        if got["feasible"] != report.feasible \
                or got["best_divergence"] != report.best_divergence:
            problems.append(("wrong", "verdict differs from the library call"))
        if got["proven_by"] is not None:
            problems.append(("wrong", f"feasible marginal proven infeasible by {got['proven_by']!r}"))
        elif not got["feasible"]:
            problems.append(("miss", f"not certified: best divergence {got['best_divergence']:.3e}"))
        return problems

    def _check_profile(self, stdout: str, ref) -> Problems:
        if "exits polytope" in stdout:
            return [("wrong", "path to the fiber vertex left the polytope")]
        lls = [float(row[1]) for row in _csv_rows(stdout)]
        problems = []
        if lls != ref["profile"].loglik.tolist():
            problems.append("profile differs from the library call")
        spread = max(lls) - min(lls)
        if not spread <= LL_TOL * max(1.0, abs(lls[0])):
            problems.append(f"profile ridge not flat: range {spread:.3e}")
        return [("wrong", msg) for msg in problems]

    def _check_emfit(self, stdout: str, ref) -> Problems:
        got = json.loads(stdout)["summary"]
        fit = ref["emfit"]
        expected = (fit.loglik, fit.iterations, fit.converged)
        found = (got["loglik"], got["iterations"], got["converged"])
        return [] if found == expected else [("wrong", f"emfit summary {found} != {expected}")]


class Cli:
    """A round replays all eight subcommands in-process through ``cli.main``
    on one set of seeded input files; rounds cycle through the sets.  The
    consistency subcommand reads one fixed marginal in every round."""

    name = "cli"
    replays = 3
    reference = ("python",)
    round_s = 0.095
    SUBCOMMANDS = ("dims", "check", "fig3", "fiber", "vertices", "consistency",
                   "profile", "emfit")

    def __init__(self, seed: int, workdir: Path, pool: int):
        rng = np.random.default_rng([seed, 3])
        cells = chain_marginal(draw_chain(np.random.default_rng(CLI_TARGET_SEED), (3, 2, 3)))
        workdir.mkdir(parents=True, exist_ok=True)
        target = workdir / "marginal.json"
        target.write_text(json.dumps({"shape": [3, 3], "cells": cells.ravel().tolist()}) + "\n",
                          encoding="utf-8")
        report = identifiability.consistency_check(model.MarginalTable((3, 3), cells), 2)
        self.sets = [_CliSet(rng, workdir / f"set{n}", target, report) for n in range(pool)]

    def round(self, r: int) -> list[Op]:
        files = self.sets[r]
        return [files.op(sub) for sub in self.SUBCOMMANDS]

    def stdout_digest(self) -> tuple[str, int]:
        """sha256 of the stdout of the first replay of the first
        ``DIGEST_SETS`` sets, in set and subcommand order, and the number of
        sets it covers (fewer only when the run replayed fewer)."""
        h = hashlib.sha256()
        covered = 0
        for files in self.sets[:DIGEST_SETS]:
            if len(files.first_stdout) < len(self.SUBCOMMANDS):
                break
            for sub in self.SUBCOMMANDS:
                h.update(f"{sub}\n{files.first_stdout[sub]}".encode())
            covered += 1
        return h.hexdigest(), covered


WORKLOADS = {w.name: w for w in (Geometry, Consistency, Cli)}
