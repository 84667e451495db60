import json

import numpy as np
import pytest

from latentgeom import (
    Shape,
    joint_from_chain,
    marginal_13,
)
from latentgeom.cli import main
from conftest import seeded_chain


@pytest.fixture()
def model_file(tmp_path):
    params = seeded_chain((3, 2, 3), 9)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "shape": [3, 2, 3],
        "p1": list(params.p1),
        "a": [list(r) for r in params.a],
        "b": [list(r) for r in params.b],
    }))
    return str(path), params


@pytest.fixture()
def counts_file(tmp_path):
    params = seeded_chain((3, 2, 3), 9)
    marg = marginal_13(joint_from_chain(params))
    draws = np.random.default_rng(4).multinomial(2000, marg.flat).reshape(3, 3)
    path = tmp_path / "counts.csv"
    lines = ["i,k,count"]
    for i in range(3):
        for k in range(3):
            lines.append(f"{i + 1},{k + 1},{draws[i, k]}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------- dims

def test_dims_golden_323(capsys):
    code, out = run(capsys, "dims", "3", "2", "3")
    assert code == 0
    data = json.loads(out)
    assert data == {"d": 17, "t": 9, "s": 8, "m": 7, "fiber": 2,
                    "case": "R2Small", "constraints": 1}


def test_dims_case_one(capsys):
    code, out = run(capsys, "dims", "2", "3", "2")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "R2Large" and data["fiber"] == 5


def test_dims_usage_error(capsys):
    code, _ = run(capsys, "dims", "1", "2", "2")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    code, _ = run(capsys, "dims", "3", "2", "3", "--frobnicate")
    assert code == 2


@pytest.mark.parametrize("argv, err", [
    ([], "latentgeom: the following arguments are required: command\n"),
    (["dims", "3", "2"],
     "latentgeom dims: the following arguments are required: r3\n"),
    (["dims", "3", "2", "3", "--frobnicate"],
     "latentgeom: unrecognized arguments: --frobnicate\n"),
    (["fig3", "--z", "x", "--c1", "0", "--c2", "0"],
     "latentgeom fig3: argument --z: invalid float value: 'x'\n"),
])
def test_parse_error_is_one_line(capsys, argv, err):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == err


# ---------------------------------------------------------------- check

def test_check_model_report(capsys, model_file):
    path, _ = model_file
    code, out = run(capsys, "check", path)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "model"
    assert data["ci_residuals"]["count"] == 8
    assert data["ci_residuals"]["max_abs"] < 1e-12
    assert abs(data["identity_residual_323"]) < 1e-10
    assert data["zero_cell"] is None
    assert len(data["cross_ratios"]) == 2


def test_check_joint_with_zero_cell(capsys, tmp_path):
    flat = [0.0] * 8
    flat[0] = 0.5
    flat[5] = 0.5
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"shape": [2, 2, 2], "cells": flat}))
    code, out = run(capsys, "check", str(path))
    assert code == 0  # an analysis result, not a failure
    data = json.loads(out)
    assert data["kind"] == "joint"
    assert data["cross_ratios"] is None
    assert data["zero_cell"] == [1, 2]


def test_check_independence_marginal_gives_unit_cross_ratios(capsys, tmp_path):
    row = np.array([0.5, 0.5])
    col = np.array([0.25, 0.75])
    lam = 0.3
    cells = []
    for i in range(2):
        for j in range(2):
            for k in range(2):
                factor = lam if j == 0 else 1 - lam
                cells.append(row[i] * col[k] * factor)
    path = tmp_path / "joint.json"
    path.write_text(json.dumps({"shape": [2, 2, 2], "cells": cells}))
    code, out = run(capsys, "check", str(path))
    data = json.loads(out)
    assert data["cross_ratios"][0][0] == pytest.approx(1.0, abs=1e-12)


def test_check_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, "check", str(path))
    assert code == 3
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"shape": [2, 2, 2], "cells": [1.0, 0.5]}))
    code, _ = run(capsys, "check", str(path2))
    assert code == 3


@pytest.mark.parametrize("cell", [("9", "9"), ("0", "1"), ("1", "4")])
def test_check_ref_cell_out_of_range_is_reported_one_based(capsys, model_file,
                                                           cell):
    path, _ = model_file
    code = main(["check", path, "--ref-cell", *cell])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"latentgeom check: --ref-cell {cell[0]} {cell[1]} "
                            "out of range for a 3 x 3 marginal\n")


# ---------------------------------------------------------------- fig3

def test_fig3_reference_intersections(capsys):
    code, out = run(capsys, "fig3", "--z", "1.25", "--c1", "0.3",
                    "--c2", "0.6", "--samples", "5")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("intersection")]
    assert len(rows) == 2
    x0, y0 = (float(v) for v in rows[0].split(",")[1:])
    x1, y1 = (float(v) for v in rows[1].split(",")[1:])
    assert (x0, y0) == pytest.approx((0.20, 0.72), abs=1e-9)
    assert (x1, y1) == pytest.approx((0.72, 0.20), abs=1e-9)


def test_fig3_independence_case(capsys):
    _, out = run(capsys, "fig3", "--z", "1", "--c1", "0.3", "--c2", "0.6",
                 "--samples", "3")
    rows = [ln for ln in out.splitlines() if ln.startswith("intersection")]
    pts = [tuple(float(v) for v in r.split(",")[1:]) for r in rows]
    assert pts[0] == pytest.approx((0.3, 0.6), abs=1e-12)
    assert pts[1] == pytest.approx((0.6, 0.3), abs=1e-12)


def test_fig3_no_real_intersection_warning_row(capsys):
    code, out = run(capsys, "fig3", "--z", "0.8", "--c1", "0.3",
                    "--c2", "0.6", "--samples", "3")
    assert code == 0
    assert "# warning: no real intersection" in out.splitlines()
    assert not any(ln.startswith("intersection") for ln in out.splitlines())


def test_fig3_curves_satisfy_equations(capsys):
    _, out = run(capsys, "fig3", "--z", "1.25", "--c1", "0.3", "--c2", "0.6",
                 "--samples", "7")
    z, c1, c2 = 1.25, 0.3, 0.6
    for ln in out.splitlines():
        if ln.startswith("line"):
            x, y = (float(v) for v in ln.split(",")[1:])
            assert x + y == pytest.approx(1 - (1 - c1 - c2) / z, abs=1e-12)
        elif ln.startswith("hyperbola"):
            x, y = (float(v) for v in ln.split(",")[1:])
            assert x * y == pytest.approx(c1 * c2 / z, abs=1e-12)


@pytest.mark.parametrize("z, shown", [("0", "0.0"), ("-0", "-0.0"),
                                      ("nan", "nan")])
def test_fig3_nonpositive_z_is_a_usage_error(capsys, z, shown):
    code = main(["fig3", "--z", z, "--c1", "0.3", "--c2", "0.2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        f"latentgeom fig3: z must be a positive real, got {shown}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--z", "-1e-05", "z must be a positive real, got -1e-05"),
    ("--c1", "-2.5E+00", "c1 must lie in [0, 1], got -2.5"),
    ("--c2", "-.5", "c2 must lie in [0, 1], got -0.5"),
])
def test_fig3_negative_number_is_a_value(capsys, flag, value, message):
    argv = {"--z": "2", "--c1": "0.3", "--c2": "0.2"}
    argv[flag] = value
    code = main(["fig3"] + [x for kv in argv.items() for x in kv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"latentgeom fig3: {message}\n"


@pytest.mark.parametrize("z", ["5e-324", "1e-310", "1e-200"])
def test_fig3_overflowing_z_is_a_usage_error(capsys, z):
    code = main(["fig3", f"--z={z}", "--c1", "0.3", "--c2", "0.2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"latentgeom fig3: z = {float(z)!r} is too small at "
                            "c1 = 0.3, c2 = 0.2: the fiber quadratic overflows\n")


# ---------------------------------------------------------------- fiber/vertices

def test_fiber_points_share_marginal(capsys, model_file):
    path, params = model_file
    code, out = run(capsys, "fiber", path, "--n", "5", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    base = marginal_13(joint_from_chain(params)).cells
    for entry in data:
        from latentgeom import ChainParams
        moved = ChainParams(Shape(*entry["shape"]), entry["p1"],
                            entry["a"], entry["b"])
        got = marginal_13(joint_from_chain(moved)).cells
        assert np.abs(got - base).max() < 1e-12


def test_vertices_report_zero_positions(capsys, model_file):
    path, params = model_file
    code, out = run(capsys, "vertices", path)
    assert code == 0
    data = json.loads(out)
    assert [v["branch"] for v in data] == ["main", "mirrored"]
    from latentgeom import MixingMatrix, apply_mixing
    for vertex in data:
        moved = apply_mixing(params, MixingMatrix(np.array(vertex["q"])))
        for flag in vertex["zeros"]:
            assert flag["matrix"] == "a"
            assert moved.a[flag["row"] - 1, flag["col"] - 1] == 0.0


# ---------------------------------------------------------------- consistency

def test_consistency_diagonal_marginal(capsys, tmp_path):
    diag = tmp_path / "diag.json"
    cells = (np.eye(3) / 3).ravel()
    diag.write_text(json.dumps({"shape": [3, 3], "cells": list(cells)}))
    code, out = run(capsys, "consistency", str(diag), "--r2", "2")
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is False
    assert data["proven_by"] == "rank"
    assert data["necessary_checks"]["rank"] == "fail"
    code, out = run(capsys, "consistency", str(diag), "--r2", "3")
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["best_divergence"] < 1e-9


def test_consistency_model_marginal_feasible(capsys, tmp_path, model_file):
    _, params = model_file
    marg = marginal_13(joint_from_chain(params))
    path = tmp_path / "marg.json"
    path.write_text(json.dumps({"shape": [3, 3], "cells": list(marg.flat)}))
    code, out = run(capsys, "consistency", str(path), "--r2", "2",
                    "--maxiter", "2000")
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["best_divergence"] < 1e-8
    assert data["witness"] is not None


def test_consistency_best_divergence_is_never_negative(capsys, tmp_path):
    # the exact witness of this table rounds to a KL of -4.6e-17 unclamped
    path = tmp_path / "counts.csv"
    path.write_text("i,k,count\n1,1,5\n1,2,3\n2,1,4\n2,2,0\n")
    code, out = run(capsys, "consistency", str(path), "--r2", "2")
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["best_divergence"] >= 0


@pytest.mark.parametrize("argv", [
    ["--tol", "-1"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"],
    ["--maxiter", "-5"],
])
def test_em_budget_out_of_range_is_a_usage_error(capsys, counts_file, argv):
    for command in (["consistency", counts_file, "--r2", "2"],
                    ["emfit", counts_file, "3", "2", "3"]):
        code = main(command + argv)
        captured = capsys.readouterr()
        assert code == 2, command + argv
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"latentgeom {command[0]}: ")


# ---------------------------------------------------------------- profile/emfit

def test_profile_flat_ridge_csv(capsys, model_file, counts_file):
    path, _ = model_file
    code, out = run(capsys, "profile", counts_file, path, "--steps", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,loglik,min_entry"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert len(values) == 9
    assert max(values) - min(values) < 1e-10


def test_profile_steps_2_identity_rows(capsys, model_file, counts_file, tmp_path):
    path, _ = model_file
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"q": [[1.0, 0.0], [0.0, 1.0]]}))
    code, out = run(capsys, "profile", counts_file, path, "--steps", "2",
                    "--q", str(qpath))
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].split(",")[1] == rows[1].split(",")[1]


def test_profile_exit_marker(capsys, model_file, counts_file, tmp_path):
    path, params = model_file
    from latentgeom import rho_pi_bounds
    bounds = rho_pi_bounds(params)
    qpath = tmp_path / "q.json"
    pi = bounds.pi_min - 0.2
    qpath.write_text(json.dumps(
        {"q": [[pi, 1 - pi], [bounds.rho_max, 1 - bounds.rho_max]]}))
    code, out = run(capsys, "profile", counts_file, path, "--steps", "8",
                    "--q", str(qpath))
    assert code == 0
    assert out.splitlines()[-1].startswith("# path exits polytope at t=")


def test_emfit_summary(capsys, counts_file, tmp_path):
    out_path = tmp_path / "fit.json"
    code, _ = run(capsys, "emfit", counts_file, "3", "2", "3",
                  "--seed", "2", "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["summary"]["converged"] is True
    assert data["summary"]["total_count"] == 2000
    assert data["model"]["shape"] == [3, 2, 3]


def test_counts_csv_validation(capsys, tmp_path, model_file):
    path, _ = model_file
    bad = tmp_path / "bad.csv"
    bad.write_text("i,k,count\n0,1,5\n")
    code, _ = run(capsys, "profile", str(bad), path)
    assert code == 3
    dup = tmp_path / "dup.csv"
    dup.write_text("i,k,count\n1,1,5\n1,1,2\n")
    code, _ = run(capsys, "emfit", str(dup), "3", "2", "3")
    assert code == 3


# ---------------------------------------------------------------- determinism

def test_byte_identical_reruns(capsys, model_file, counts_file):
    path, _ = model_file
    for argv in (
        ["dims", "4", "3", "4"],
        ["check", path],
        ["fig3", "--z", "1.25", "--c1", "0.3", "--c2", "0.6"],
        ["fiber", path, "--n", "4", "--seed", "11"],
        ["vertices", path],
        ["consistency", counts_file, "--r2", "3", "--seed", "5"],
        ["profile", counts_file, path, "--steps", "5"],
        ["emfit", counts_file, "3", "2", "3", "--seed", "8"],
    ):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second, argv


def test_float_output_has_17_significant_digits(capsys, model_file):
    path, _ = model_file
    _, out = run(capsys, "check", path)
    marginal = json.loads(out)["marginal"]
    # values round-trip exactly through their printed form
    raw = out.split('"marginal": [')[1].split("]")[0].split(",")
    for text, value in zip(raw, marginal):
        assert float(text) == value