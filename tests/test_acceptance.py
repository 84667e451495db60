"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, not configured elsewhere.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentgeom
from latentgeom import (
    CountTable,
    GeometryError,
    MixingMatrix,
    NoRealSolution,
    Shape,
    apply_mixing,
    binary_fiber_solve,
    binary_surface,
    consistency_check,
    cross_ratios,
    diagonal_marginal,
    dims,
    em_fit_details,
    extreme_mixings,
    fiber_dimension,
    jacobian_rank,
    joint_from_chain,
    kl_divergence,
    loglik,
    marginal_13,
    marginal_identity_323,
    profile_along_fiber,
    quadric_residuals_323,
    solve_fiber_323,
    split,
)
from latentgeom.likelihood import _em_batch
from conftest import seeded_chain


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed {suffix}"


def test_c01_dimension_table():
    expected = {
        (2, 2, 2): dict(t=5, m=3, fiber=2),
        (3, 2, 3): dict(d=17, t=9, s=8, m=7, fiber=2),
        (4, 3, 4): dict(d=47, t=20, s=27, m=14, fiber=6),
    }
    ok = True
    for shape, fields in expected.items():
        got = dims(Shape(*shape))
        for key, val in fields.items():
            ok = ok and getattr(got, key) == val
    report(1, "dimension-table", ok)


def test_c02_binary_fiber_reference_values():
    sol = binary_fiber_solve(1.25, 0.3, 0.6)
    pts = sorted(sol.points)
    ok = (len(pts) == 2
          and abs(pts[0][0] - 0.20) < 1e-9 and abs(pts[0][1] - 0.72) < 1e-9
          and abs(pts[1][0] - 0.72) < 1e-9 and abs(pts[1][1] - 0.20) < 1e-9)
    try:
        binary_fiber_solve(0.8, 0.3, 0.6)
        ok = False
    except NoRealSolution:
        pass
    report(2, "binary-fiber-reference", ok)


def test_c03_parametrisation_rank():
    shapes = [(2, 2, 2), (3, 2, 3), (2, 3, 2), (4, 3, 4)]
    failures = 0
    for shape in shapes:
        t = dims(Shape(*shape)).t
        for seed in range(100):
            params = seeded_chain(shape, 10_000 + 100 * shape[0] + seed)
            if jacobian_rank(params) != t:
                failures += 1
    report(3, "parametrisation-rank", failures == 0, f"failures={failures}")


def test_c04_orbit_rank():
    shapes = [(3, 2, 3), (4, 2, 4), (4, 3, 4), (5, 3, 5)]
    failures = 0
    for shape in shapes:
        expected = shape[1] * (shape[1] - 1)
        for seed in range(20):
            params = seeded_chain(shape, 20_000 + 100 * shape[0] + seed)
            if fiber_dimension(params) != expected:
                failures += 1
    report(4, "orbit-rank", failures == 0, f"failures={failures}")


def test_c05_marginal_identity():
    worst = 0.0
    for seed in range(1000):
        params = seeded_chain((3, 2, 3), 1000 + seed)
        z = cross_ratios(marginal_13(joint_from_chain(params)))
        worst = max(worst, abs(marginal_identity_323(z)))
    rng = np.random.default_rng(555)
    generic = []
    for _ in range(1000):
        cells = rng.dirichlet(np.ones(9)).reshape(3, 3)
        from latentgeom import MarginalTable
        z = cross_ratios(MarginalTable((3, 3), cells))
        generic.append(abs(marginal_identity_323(z)))
    median = float(np.median(generic))
    ok = worst < 1e-10 and median > 1e-3
    report(5, "marginal-identity", ok,
           f"on-variety max={worst:.2e}, generic median={median:.2e}")


def _valid_mixing(params, rng, scale=0.4):
    r2 = params.shape.r2
    eye = np.eye(r2)
    for _ in range(500):
        m = rng.standard_normal((r2, r2))
        m -= m.mean(axis=1, keepdims=True)
        try:
            q = MixingMatrix(eye + scale * m)
            apply_mixing(params, q)
            return q
        except GeometryError:
            continue
    raise RuntimeError("no valid mixing found")


def test_c06_fiber_invariance_and_composition():
    worst_marg = 0.0
    worst_comp = 0.0
    for seed in range(100):
        params = seeded_chain((3, 2, 3), 30_000 + seed)
        base = marginal_13(joint_from_chain(params)).cells
        rng = np.random.default_rng(seed)
        q1 = _valid_mixing(params, rng)
        moved = apply_mixing(params, q1)
        worst_marg = max(worst_marg, float(np.abs(
            marginal_13(joint_from_chain(moved)).cells - base).max()))
        q2 = _valid_mixing(moved, rng)
        left = apply_mixing(moved, q2)
        right = apply_mixing(params, MixingMatrix(q2.q @ q1.q))
        worst_comp = max(worst_comp,
                         float(np.abs(left.a - right.a).max()),
                         float(np.abs(left.b - right.b).max()))
    ok = worst_marg < 1e-12 and worst_comp < 1e-12
    report(6, "fiber-invariance", ok,
           f"marginal={worst_marg:.2e}, composition={worst_comp:.2e}")


def test_c07_degeneracy_at_extremes():
    ok = True
    for seed in range(50):
        shape = (3, 2, 3) if seed % 2 == 0 else (4, 2, 4)
        params = seeded_chain(shape, 40_000 + seed)
        for vertex in extreme_mixings(params):
            moved = apply_mixing(params, vertex.q)
            for col in range(2):
                ok = ok and bool((moved.a[:, col] == 0.0).any())
    report(7, "degeneracy-at-extremes", ok)


def test_c08_flat_ridge():
    worst_range = 0.0
    worst_end = 0.0
    for seed in range(20):
        truth = seeded_chain((3, 2, 3), 50_000 + seed)
        marg = marginal_13(joint_from_chain(truth))
        draws = np.random.default_rng(seed).multinomial(2000, marg.flat)
        counts = CountTable(marg.shape, draws.reshape(marg.shape))
        fitted = em_fit_details(counts, Shape(3, 2, 3), seed=seed).params
        vertex = extreme_mixings(fitted)[0]
        trace = profile_along_fiber(counts, fitted, vertex.q, 21)
        worst_range = max(worst_range, trace.range)
        boundary = apply_mixing(fitted, vertex.q)
        worst_end = max(worst_end, abs(loglik(counts, boundary)
                                       - loglik(counts, fitted)))
    ok = worst_range < 1e-10 and worst_end < 1e-10
    report(8, "flat-ridge", ok,
           f"range={worst_range:.2e}, boundary gap={worst_end:.2e}")


def test_c09_diagonal_obstruction():
    low = consistency_check(diagonal_marginal(3, 3), r2=2)
    high = consistency_check(diagonal_marginal(3, 3), r2=3)
    ok = (not low.feasible and low.proven_infeasible_by == "rank"
          and high.feasible and high.best_divergence < 1e-9)
    report(9, "diagonal-obstruction", ok,
           f"r2=3 divergence={high.best_divergence:.2e}")


def test_c10_solver_soundness():
    worst = 0.0
    for seed in range(100):
        params = seeded_chain((3, 2, 3), 60_000 + seed)
        marg, lam = split(joint_from_chain(params))
        z = cross_ratios(marg)
        true = lam.values[:, :, 0]
        field = solve_fiber_323(z, float(true[1, 0]), float(true[1, 1]))
        worst = max(worst, float(np.abs(quadric_residuals_323(z, field)).max()))
    surface_ok = 0
    worst_surface = 0.0
    rng = np.random.default_rng(3)
    while surface_ok < 1000:
        l12, l22 = rng.uniform(0.02, 0.98, 2)
        if abs(l22 - l12) < 1e-3:
            continue
        lo, hi = sorted((l12 / l22, (1 - l12) / (1 - l22)))
        if hi - lo < 1e-6:
            continue
        z = float(rng.uniform(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)))
        if z <= 0:
            continue
        l21, l11 = binary_surface(l12, l22, z)
        r7 = abs(z * (1 - l11 - l22) - (1 - l12 - l21))
        r8 = abs(z * l11 * l22 - l12 * l21)
        worst_surface = max(worst_surface, r7, r8)
        surface_ok += 1
    ok = worst < 1e-9 and worst_surface < 1e-10
    report(10, "solver-soundness", ok,
           f"fiber={worst:.2e}, surface={worst_surface:.2e}")


def test_c11_em_sanity():
    truth = seeded_chain((3, 2, 3), 77, floor=0.05)
    marg = marginal_13(joint_from_chain(truth))
    draws = np.random.default_rng(123).multinomial(100_000, marg.flat)
    counts = CountTable(marg.shape, draws.reshape(marg.shape))
    fitted = em_fit_details(counts, Shape(3, 2, 3), seed=0).params
    kl = kl_divergence(marg, marginal_13(joint_from_chain(fitted)))
    trace: list[float] = []
    _em_batch(counts.counts.astype(float), Shape(3, 2, 3),
              [np.random.default_rng(0)], maxiter=400, tol=1e-12, trace=trace)
    diffs = np.diff(np.array(trace))
    slack = 1e-12 * np.maximum(1.0, np.abs(np.array(trace[:-1])))
    monotone = bool((diffs >= -slack).all())
    ok = kl < 1e-3 and monotone
    report(11, "em-sanity", ok, f"KL={kl:.2e}, monotone={monotone}")


def test_c12_cli_determinism(tmp_path):
    params = seeded_chain((3, 2, 3), 9)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "shape": [3, 2, 3],
        "p1": list(params.p1),
        "a": [list(r) for r in params.a],
        "b": [list(r) for r in params.b],
    }))
    marg = marginal_13(joint_from_chain(params))
    draws = np.random.default_rng(4).multinomial(2000, marg.flat).reshape(3, 3)
    counts_path = tmp_path / "counts.csv"
    lines = ["i,k,count"] + [f"{i + 1},{k + 1},{draws[i, k]}"
                             for i in range(3) for k in range(3)]
    counts_path.write_text("\n".join(lines) + "\n")
    commands = [
        ["dims", "3", "2", "3"],
        ["check", str(model_path), "--ref-cell", "1", "1"],
        ["fig3", "--z", "1.25", "--c1", "0.3", "--c2", "0.6"],
        ["fiber", str(model_path), "--n", "5", "--seed", "21"],
        ["vertices", str(model_path)],
        ["consistency", str(counts_path), "--r2", "3", "--seed", "2"],
        ["profile", str(counts_path), str(model_path), "--steps", "7"],
        ["emfit", str(counts_path), "3", "2", "3", "--seed", "6"],
    ]
    # the child processes import the same package as this test
    package_root = str(Path(latentgeom.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    ok = True
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "latentgeom", *argv],
                           capture_output=True, check=True, env=env)
            for _ in range(2)
        ]
        ok = ok and runs[0].stdout == runs[1].stdout
    report(12, "cli-determinism", ok)
