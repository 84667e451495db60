import hashlib
import json
import os
import shutil
import sys

import numpy as np
import pytest

from latentgeom import (
    ChainParams,
    MixingMatrix,
    PathExitsPolytope,
    Shape,
    joint_from_chain,
    marginal_13,
)
from latentgeom import cli, likelihood
from latentgeom.cli import main
from conftest import run_fresh, seeded_chain, seeded_marginal


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


@pytest.fixture()
def slack_file(tmp_path):
    """The unit square's slack matrix as counts: rank 3, nonnegative rank 4."""
    slack = [[0, 1, 0, 1], [1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0]]
    path = tmp_path / "slack.csv"
    path.write_text("i,k,count\n" + "".join(
        f"{i + 1},{k + 1},{slack[i][k]}\n" for i in range(4) for k in range(4)))
    return str(path)


@pytest.fixture()
def cube_file(tmp_path):
    """The unit cube's slack matrix as counts, vertices by facets: rank 4,
    nonnegative rank 6."""
    cube = [[x for i in (4, 2, 1) for x in (v // i % 2, 1 - v // i % 2)]
            for v in range(8)]
    path = tmp_path / "cube.csv"
    path.write_text("i,k,count\n" + "".join(
        f"{i + 1},{k + 1},{cube[i][k]}\n" for i in range(8) for k in range(6)))
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


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_is_a_file_error(capsys, tmp_path, where):
    target = str(tmp_path / "no" / "such" / "x.json" if where == "missing-dir"
                 else tmp_path)
    code = main(["dims", "2", "2", "2", "--output", target])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith(f"latentgeom dims: {target}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ["dims", "3", "2", "3"],
    # more than the stdout buffer holds: the write fails, not the flush
    ["fig3", "--z", "1.25", "--c1", "0.3", "--c2", "0.6", "--samples", "2000"],
])
def test_full_stdout_is_a_file_error(argv, unbuffered):
    # one line and exit 3, and the flush at exit neither prints nor fails
    with open("/dev/full", "w") as full:
        proc = run_fresh("-m", "latentgeom", *argv, stdout=full,
                         PYTHONUNBUFFERED=unbuffered)
    assert (proc.returncode, proc.stderr) == (
        3, f"latentgeom {argv[0]}: <stdout>: [Errno 28] No space left on device\n")


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


@pytest.mark.parametrize("command", ["check", "profile"])
def test_model_at_the_row_sum_edge_runs(capsys, tmp_path, command):
    # every row sums to 1 + 0.9e-12, within SUM_TOL, and the joint to
    # 1 + 2.7e-12: the model is accepted in process and in a fresh start
    row = [0.5, 0.5 + 0.9e-12]
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"shape": [2, 2, 2], "p1": row, "a": [row, row],
                                "b": [row, row]}))
    argv = ["check", str(path)]
    if command == "profile":
        (tmp_path / "counts.csv").write_text(
            "i,k,count\n1,1,3\n1,2,1\n2,1,2\n2,2,4\n")
        (tmp_path / "q.json").write_text(json.dumps({"q": [[0.9, 0.1], [0.1, 0.9]]}))
        argv = ["profile", str(tmp_path / "counts.csv"), str(path),
                "--q", str(tmp_path / "q.json"), "--steps", "3"]
    code, out = run(capsys, *argv)
    assert code == 0
    fresh = run_fresh("-m", "latentgeom", *argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, out, "")


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


@pytest.mark.parametrize("command, shape", [
    ("vertices", [2.9, 2, "2"]),
    ("vertices", "323"),
    ("vertices", [True, 2, 2]),
    ("vertices", [2, 2]),
    ("vertices", [[2], 2, 2]),
    ("vertices", None),
    ("check", [2.0, 2, 2]),
    ("check", [2, 2, 2, 2]),
    ("consistency", [2.5, "2"]),
    ("consistency", "22"),
    ("consistency", [2, False]),
    ("consistency", [2, 2, 1]),
])
def test_shape_must_be_a_list_of_integers(capsys, tmp_path, command, shape):
    # entries are not truncated or read digit by digit: anything but a
    # list of integers of the shape's length is a malformed file
    path = tmp_path / "input.json"
    if command == "consistency":
        data = {"shape": shape, "cells": [0.25] * 4}
        argv = ["consistency", str(path), "--r2", "2"]
    else:
        data = {"shape": shape, "p1": [0.5, 0.5], "a": [[0.5, 0.5]] * 2,
                "b": [[0.3, 0.7], [0.6, 0.4]]}
        argv = [command, str(path)]
    path.write_text(json.dumps(data))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    length = 2 if command == "consistency" else 3
    assert captured.err == (f"latentgeom {command}: {path}: shape must be a "
                            f"list of {length} integers, got {shape!r}\n")


def test_row_sum_message_prints_a_plain_float(capsys, tmp_path):
    # the sum is a numpy float; the message shows its value, not its repr
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "shape": [3, 2, 3], "p1": [0.2, 0.3, 0.5],
        "a": [[0.5, 0.4], [0.6, 0.4], [0.5, 0.5]],
        "b": [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]}))
    code = main(["fiber", str(path), "--n", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"latentgeom fiber: {path}: row 0 of a sums to "
                            f"0.9, not 1\n")


@pytest.mark.parametrize("name, content", [
    ("model.json", b"\xff{}"),
    ("model.json", b'{"shape": [3, 2, 3], "p1": [1' + b"0" * 5000 + b"]}"),
    ("model.json", b'{"shape": [3, 2, 3], "p1": [1' + b"0" * 400 + b"]}"),
    ("model.json", b'{"shape": ' + b"[" * 100000 + b"]" * 100000 + b"}"),
    ("counts.csv", b"i,k,count\n1,1,99999999999999999999\n"),
    ("model.json", b'{"shape": [3, 2, 3], "p1": [Infinity, -Infinity, 1], '
                   b'"a": [[1, 0], [1, 0], [1, 0]], "b": [[1, 0, 0], [1, 0, 0]]}'),
    ("model.json", b'{"shape": [5, 2, 2], "p1": [4611686018427387904, '
                   b'4611686018427387904, 4611686018427387904, '
                   b'4611686018427387904, 1], "a": [[1, 0], [1, 0], [1, 0], '
                   b'[1, 0], [1, 0]], "b": [[1, 0], [0, 1]]}'),
    ("model.json", b'{"shape": [3, 2, 3], "p1": ["0.2", "0.3", "0.5"], '
                   b'"a": [[0.5, 0.5], [0.6, 0.4], [0.3, 0.7]], '
                   b'"b": [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]}'),
    ("joint.json", b'{"shape": [2, 2, 2], "cells": ["0.125", 0.125, 0.125, '
                   b'0.125, 0.125, 0.125, 0.125, 0.125]}'),
    ("marginal.json", b'{"shape": [2, 2], "cells": ["0.25", 0.25, 0.25, 0.25]}'),
    ("q.json", b'{"q": [["1.0", "0.0"], [0.0, 1.0]]}'),
], ids=["not-utf8", "int-too-long", "int-beyond-float", "too-deep",
        "count-beyond-int64", "both-infinities", "ints-wrapping-int64",
        "model-numeric-string", "joint-numeric-string",
        "marginal-numeric-string", "q-numeric-string"])
def test_unreadable_values_are_file_errors(capsys, tmp_path, model_file,
                                           counts_file, name, content):
    # bytes that are not UTF-8, integers too long to parse or to convert,
    # nesting too deep to parse, counts beyond int64, a row holding both
    # infinities (whose plain sum warns), integers whose int64 sum wraps to
    # 1 and numbers written as strings end in exit 3 with one line naming
    # the file, not in a traceback
    path = tmp_path / "given" / name
    path.parent.mkdir()
    path.write_bytes(content)
    argv = {"model.json": ["vertices", str(path)],
            "joint.json": ["check", str(path)],
            "q.json": ["profile", counts_file, model_file[0], "--q", str(path)],
            }.get(name, ["consistency", str(path), "--r2", "2"])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"latentgeom {argv[0]}: {path}")
    assert captured.err.count("\n") == 1


def test_counts_shape_is_the_largest_index_listed(capsys, tmp_path):
    # without a model the table has as many rows and columns as the largest
    # i and k listed; a 0 count keeps an all-zero last row
    from latentgeom.cli import load_counts
    rows = "i,k,count\n1,1,3\n1,2,1\n2,1,1\n2,3,4\n"
    short, kept = tmp_path / "short.csv", tmp_path / "kept.csv"
    short.write_text(rows)
    kept.write_text(rows + "3,1,0\n")
    assert load_counts(str(short)).shape == (2, 3)
    table = load_counts(str(kept))
    assert table.shape == (3, 3)
    assert table.counts[2].tolist() == [0, 0, 0]
    for path, r1 in ((short, 2), (kept, 3)):
        code, out = run(capsys, "consistency", str(path), "--r2", "2")
        assert code == 0
        assert json.loads(out)["witness"]["shape"] == [r1, 2, 3]


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


@pytest.mark.parametrize("samples", ["-3", "-1"])
def test_fig3_negative_samples_is_a_usage_error(capsys, samples):
    # like fiber --n and profile --steps: one line, exit 2, no rows
    code = main(["fig3", "--z", "1.25", "--c1", "0.3", "--c2", "0.6",
                 "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"latentgeom fig3: --samples must be >= 0, got {samples}\n"


def test_fig3_zero_samples_prints_only_the_intersections(capsys):
    code, out = run(capsys, "fig3", "--z", "1.25", "--c1", "0.3",
                    "--c2", "0.6", "--samples", "0")
    assert code == 0
    assert [ln.split(",")[0] for ln in out.splitlines()[3:]] == [
        "intersection", "intersection"]


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
    ("--z", "-inf", "z must be a positive real, got -inf"),
    ("--z", "-Infinity", "z must be a positive real, got -inf"),
    ("--z", "-NaN", "z must be a positive real, got nan"),
    ("--c1", "-INF", "c1 must lie in [0, 1], got -inf"),
    ("--c2", "-nan", "c2 must lie in [0, 1], got nan"),
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


@pytest.mark.parametrize("c1, c2", [("-0.0", "0"), ("0", "-0"), ("-0.0", "-0.0"),
                                    ("-0.0", "0.3"), ("0.3", "-0")])
def test_fig3_signed_zero_prints_as_zero(capsys, c1, c2):
    # a -0.0 flag prints what the 0.0 flag prints, on the hyperbola and at
    # the intersections alike
    _, out = run(capsys, "fig3", "--z", "2", "--c1", c1, "--c2", c2)
    _, unsigned = run(capsys, "fig3", "--z", "2", "--c1", c1.lstrip("-"),
                      "--c2", c2.lstrip("-"))
    assert out == unsigned
    assert not any(v == "-0" for ln in out.splitlines() for v in ln.split(","))


# ---------------------------------------------------------------- rendering

LAYOUT_ARRAY = """[
  [
    [0, 0.25, 0.5],
    [0.75, 1, 1.25]
  ],
  [
    [1.5, 1.75, 2],
    [2.25, 2.5, 2.75]
  ],
  [
    [3, 3.25, 3.5],
    [3.75, 4, 4.25]
  ]
]"""

LAYOUT_CHAIN = """{
  "shape": [3, 2, 3],
  "p1": [0.5, 0.25, 0.25],
  "a": [
    [0.5, 0.5],
    [0.25, 0.75],
    [1, 0]
  ],
  "b": [
    [0.5, 0.25, 0.25],
    [0, 0, 1]
  ]
}"""


@pytest.mark.parametrize("chain_first", [False, True])
def test_layout_cache_keeps_array_and_chain_shapes_apart(chain_first):
    # the layout cache keys an array's shape tuple and a chain's Shape
    # together, so a Shape equal to (3, 2, 3) would get the array's layout
    array = np.arange(18, dtype=float).reshape(3, 2, 3) / 4
    chain = ChainParams(Shape(3, 2, 3), [0.5, 0.25, 0.25],
                        [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]],
                        [[0.5, 0.25, 0.25], [0.0, 0.0, 1.0]])
    cases = [(array, LAYOUT_ARRAY), (chain, LAYOUT_CHAIN)]
    cli._layout.cache_clear()
    for value, golden in cases[::-1] if chain_first else cases:
        assert cli._render_json(value) == golden
    for value, golden in cases:
        assert cli._render_json(value) == golden


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


def test_consistency_search_stdout_golden(capsys, slack_file):
    code, out = run(capsys, "consistency", slack_file, "--r2", "3",
                    "--restarts", "5", "--maxiter", "60")
    assert code == 0
    assert json.loads(out)["feasible"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0c2b8c92c506403f65baf6f747cb6d0bf775025ee29dd353edf9fa3b58ad5491")


@pytest.mark.parametrize("cells, r2, digest", [
    # a rank-2 chain marginal: the segment witness
    (lambda: marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 2027))).cells,
     "2", "de5b7bcef2e5b7e0f019ade610f43c6fbe8b10cd81e1fe0b7499de7a6fb6060d"),
    # r2 >= min(r1, r3): Y2 copies Y1
    (lambda: seeded_marginal((3, 5), 2027).cells,
     "3", "8f60aab58364ad3d270768bedc9b3c28a2bb2a4423af0d4a317764fcbdd85afb"),
], ids=["segment", "y2-copies-y1"])
def test_consistency_closed_form_stdout_golden(capsys, tmp_path, cells, r2, digest):
    # the digests of the value-type certification that _certify replaced
    cells = cells()
    path = tmp_path / "marg.json"
    path.write_text(json.dumps({"shape": list(cells.shape),
                                "cells": list(cells.ravel())}))
    code, out = run(capsys, "consistency", str(path), "--r2", r2)
    assert code == 0
    assert json.loads(out)["feasible"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_consistency_rank_four_search_stdout_golden(capsys, cube_file):
    # only the EM search decides a rank-4 table; the digest is that of the
    # search before rank-3 tables were decided by nested polygons
    code, out = run(capsys, "consistency", cube_file, "--r2", "4",
                    "--restarts", "5", "--maxiter", "60")
    assert code == 0
    assert json.loads(out)["feasible"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "177fe92bf4fc51504fa21702739b250a045b7f72a68542ad94e0e7870cd7fc05")


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
    marker, _, printed = out.splitlines()[-1].partition("t=")
    assert marker == "# path exits polytope at "
    # the printed t round-trips to the library's exit_t
    with pytest.raises(PathExitsPolytope) as err:
        likelihood.profile_along_fiber(
            cli.load_counts(counts_file, shape=(3, 3)), params,
            MixingMatrix(json.loads(qpath.read_text())["q"]), 8)
    assert float(printed) == err.value.exit_t


def test_emfit_summary(capsys, counts_file, tmp_path):
    out_path = tmp_path / "fit.json"
    code, _ = run(capsys, "emfit", counts_file, "3", "2", "3",
                  "--seed", "2", "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["summary"]["converged"] is True
    assert data["summary"]["total_count"] == 2000
    assert data["model"]["shape"] == [3, 2, 3]


def test_emfit_stdout_golden(capsys, counts_file):
    code, out = run(capsys, "emfit", counts_file, "3", "2", "3", "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3cb4355a4a64272248c7b5061e17012062d246b1dddf324a05df3391eab99d4a")


def test_em_decrease_is_a_one_line_error(capsys, monkeypatch, counts_file,
                                         slack_file):
    monkeypatch.setattr(likelihood, "EM_SLACK", -1.0)
    for argv in (["emfit", counts_file, "3", "2", "3"],
                 ["consistency", slack_file, "--r2", "3"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            f"latentgeom {argv[0]}: EM log-likelihood decreased: ")


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


#: stdout sha256 of the subcommands that print many floats, recorded before
#: arrays, models and CSV rows were formatted through cached templates; the
#: fiber points are those of the sampler's sweep of exact chords, and the
#: exit of profile-exit is the last float the mixing kernel accepts
STDOUT_GOLDENS = {
    "fiber-323-n50": (
        ["fiber", "{model}", "--n", "50"],
        "3b2ad6376667f176114c43bfba6f2bf1ac119a555194358c6ed68df8f4920782"),
    "fiber-434-n10": (
        ["fiber", "{wide}", "--n", "10"],
        "c519c7966a5add45992271719df18f6f457297e9dd440f9bdb1d68e3cd0b567f"),
    "vertices": (
        ["vertices", "{model}"],
        "3f0b1307abc41854bd11654a8338e8eb063098e7bdc1e02985f523a46b3ff47a"),
    "check": (
        ["check", "{model}"],
        "3769686b9720efa4383dfb01021137c069a0d8f9dd4de54b46cdc262577423dd"),
    "profile": (
        ["profile", "{counts}", "{model}"],
        "7e8dbe504fcd67df630ec0a28b79542c1673daac040a91e216abf69499d72201"),
    "profile-exit": (
        ["profile", "{counts}", "{model}", "--steps", "8", "--q", "{q}"],
        "e1bc9781fece03fb3ca0a2ffd1e4bb8a0e1b945c4dc8f98dc7a66fd9b090eed2"),
    "fig3": (
        ["fig3", "--z", "1.25", "--c1", "0.3", "--c2", "0.6"],
        "8c174436c230419b078fabd108e74fad0927a0bfc06043b6a18c1e68ead950cc"),
}


@pytest.mark.parametrize("name", sorted(STDOUT_GOLDENS))
def test_stdout_golden(capsys, tmp_path, model_file, counts_file, name):
    path, params = model_file
    wide = seeded_chain((4, 3, 4), 9)
    wide_path = tmp_path / "wide.json"
    wide_path.write_text(json.dumps({
        "shape": [4, 3, 4], "p1": list(wide.p1),
        "a": [list(r) for r in wide.a], "b": [list(r) for r in wide.b]}))
    # the path of test_profile_exit_marker, which leaves the polytope
    from latentgeom import rho_pi_bounds
    bounds = rho_pi_bounds(params)
    pi = bounds.pi_min - 0.2
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(
        {"q": [[pi, 1 - pi], [bounds.rho_max, 1 - bounds.rho_max]]}))
    files = {"model": path, "wide": str(wide_path), "counts": counts_file,
             "q": str(qpath)}
    argv, digest = STDOUT_GOLDENS[name]
    code, out = run(capsys, *(a.format(**files) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_float_output_has_17_significant_digits(capsys, model_file):
    path, _ = model_file
    _, out = run(capsys, "check", path)
    marginal = json.loads(out)["marginal"]
    # values round-trip exactly through their printed form
    raw = out.split('"marginal": [')[1].split("]")[0].split(",")
    for text, value in zip(raw, marginal):
        assert float(text) == value


# ---------------------------------------------------------------- one parser

def test_reused_parser_keeps_calls_independent(capsys, tmp_path, model_file,
                                               counts_file, slack_file):
    # every subcommand, usage errors, file errors and help, each run once
    # with a parser of its own and then on the shared parser in both orders
    from latentgeom.cli import _build_parser
    path, _ = model_file
    marg = tmp_path / "marg.json"
    marg.write_text(json.dumps({"shape": [3, 3], "cells": [1 / 9] * 9}))
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"q": [[0.9, 0.1], [0.2, 0.8]]}))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    missing = str(tmp_path / "missing.json")
    argvs = [
        ["dims", "3", "2", "3"],
        ["dims", "4", "3", "4", "--output", str(tmp_path / "dims.json")],
        ["check", path],
        ["check", path, "--ref-cell", "2", "3"],
        ["fig3", "--z", "1.25", "--c1", "0.3", "--c2", "0.6", "--samples", "4"],
        ["fig3", "--z", "-1e-05", "--c1", "0.3", "--c2", "0.2"],
        ["fiber", path, "--n", "3", "--seed", "7"],
        ["fiber", path],
        ["vertices", path, "--side", "b"],
        ["vertices", path],
        ["consistency", str(marg), "--r2", "2"],
        ["consistency", slack_file, "--r2", "3", "--restarts", "3",
         "--maxiter", "20", "--seed", "4"],
        ["consistency", counts_file, "--r2", "2", "--tol", "nan"],
        ["profile", counts_file, path, "--steps", "5"],
        ["profile", counts_file, path, "--q", str(qpath), "--steps", "4"],
        ["profile", counts_file, path, "--vertex", "9"],
        ["emfit", counts_file, "3", "2", "3", "--seed", "2", "--maxiter", "30"],
        ["emfit", counts_file, "3", "2", "3"],
        [], ["frobnicate"], ["dims", "3", "2"], ["dims", "1", "2", "2"],
        ["dims", "3", "2", "3", "--frobnicate"], ["fiber", path, "--seed", "-1"],
        ["vertices", path, "--side", "c"], ["check", str(bad)], ["check", missing],
        ["profile", counts_file, missing],
        ["--help"], ["dims", "--help"], ["check", "--help"], ["fig3", "--help"],
        ["fiber", "--help"], ["vertices", "--help"], ["consistency", "--help"],
        ["profile", "--help"], ["emfit", "--help"],
    ]

    def call(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    forward = [call(argv) for argv in argvs]
    backward = [call(argv) for argv in reversed(argvs)][::-1]
    for argv, alone, first, second in zip(argvs, fresh, forward, backward):
        assert first == alone, argv
        assert second == alone, argv
    assert {code for code, _, _ in fresh} == {0, 2, 3}
    assert _build_parser() is _build_parser()


# ---------------------------------------------------------------- counts limits

@pytest.mark.parametrize("row, shape", [
    ("1000000000000000,1,1", "1000000000000000 x 1"),
    ("1001,1000,1", "1001 x 1000"),
    ("1,1000001,0", "1 x 1000001"),
])
def test_counts_table_beyond_the_cell_limit_is_a_file_error(capsys, tmp_path,
                                                            row, shape):
    # the size implied by the largest indices is refused before allocation
    path = tmp_path / "huge.csv"
    path.write_text(f"i,k,count\n1,1,1\n{row}\n")
    code = main(["consistency", str(path), "--r2", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"latentgeom consistency: {path}: a {shape} counts "
                            "table exceeds the limit of 1000000 cells\n")


def test_counts_table_implied_by_a_model_beyond_the_limit(capsys, tmp_path,
                                                         counts_file):
    # a 1001 x 2 x 1000 model implies a 1001 x 1000 counts table
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"shape": [1001, 2, 1000],
                                "p1": [1 / 1001] * 1001,
                                "a": [[0.5, 0.5]] * 1001,
                                "b": [[1 / 1000] * 1000] * 2}))
    code = main(["profile", counts_file, str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (f"latentgeom profile: {counts_file}: a 1001 x 1000 "
                            "counts table exceeds the limit of 1000000 cells\n")


@pytest.mark.parametrize("r1, r3", [("1001", "1000"), ("2", "500001"),
                                    ("1000000000000000", "2")])
def test_emfit_shape_beyond_the_cell_limit_is_a_usage_error(capsys, counts_file,
                                                           r1, r3):
    code = main(["emfit", counts_file, r1, "2", r3])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"latentgeom emfit: a {r1} x {r3} counts table "
                            "exceeds the limit of 1000000 cells\n")


@pytest.mark.parametrize("r2", ["111112", "1000000000000000"])
def test_emfit_joint_table_beyond_the_cell_limit_is_a_usage_error(
        capsys, counts_file, r2):
    # the 3 x 3 counts table is within the limit, the 3 x r2 x 3 chain is not
    code = main(["emfit", counts_file, "3", r2, "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"latentgeom emfit: a 3 x {r2} x 3 joint table "
                            "exceeds the limit of 1000000 cells\n")


@pytest.mark.parametrize("row, r2, shape", [
    ("3,3,1", "111112", "3 x 111112 x 3"),
    ("3,3,1", "1000000000000000", "3 x 1000000000000000 x 3"),
    # a marginal of more than 5 * 10**5 cells at r2 = 2
    ("1000,501,1", "2", "1000 x 2 x 501"),
])
def test_consistency_joint_table_beyond_the_cell_limit_is_a_usage_error(
        capsys, tmp_path, row, r2, shape):
    path = tmp_path / "counts.csv"
    path.write_text(f"i,k,count\n1,1,1\n{row}\n")
    code = main(["consistency", str(path), "--r2", r2])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"latentgeom consistency: a {shape} joint table "
                            "exceeds the limit of 1000000 cells\n")


def test_consistency_marginal_file_at_a_huge_r2_is_a_usage_error(capsys,
                                                                tmp_path):
    path = tmp_path / "marg.json"
    path.write_text(json.dumps({"shape": [3, 3], "cells": [1 / 9] * 9}))
    code = main(["consistency", str(path), "--r2", "1000000000000000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("latentgeom consistency: a 3 x 1000000000000000 x 3 "
                            "joint table exceeds the limit of 1000000 cells\n")


@pytest.mark.parametrize("flag, value", [("--samples", "1000001"),
                                         ("--n", "1000001"),
                                         ("--steps", "1000000000000000")])
def test_length_flags_beyond_the_cell_limit_are_usage_errors(
        capsys, model_file, counts_file, flag, value):
    command, argv = {
        "--samples": ("fig3", ["--z", "2", "--c1", "0.2", "--c2", "0.3"]),
        "--n": ("fiber", [model_file[0]]),
        "--steps": ("profile", [counts_file, model_file[0]]),
    }[flag]
    code = main([command, *argv, flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"latentgeom {command}: {flag} must be at most "
                            f"1000000, got {value}\n")


def test_cell_limit_is_inclusive():
    from latentgeom.cli import MAX_COUNT_CELLS, _too_many_cells
    assert MAX_COUNT_CELLS == 10 ** 6
    assert _too_many_cells("joint table", 100, 100, 100) == ""
    assert _too_many_cells("joint table", 100, 100, 101) == (
        "a 100 x 100 x 101 joint table exceeds the limit of 1000000 cells")


@pytest.mark.parametrize("cells", [2, 4, 5])
def test_count_totals_past_int64_are_exact(capsys, tmp_path, cells):
    # totals of 2**63, 2**64 and 5 * 2**62, which an int64 sum wraps, in a
    # 2 x 3 table
    path = tmp_path / "wrap.csv"
    at = [(1, 1), (2, 2), (1, 2), (2, 1), (1, 3)][:cells]
    path.write_text("i,k,count\n2,3,0\n" + "".join(
        f"{i},{k},{2 ** 62}\n" for i, k in at))
    code, out = run(capsys, "emfit", str(path), "2", "2", "3")
    assert code == 0
    assert f'"total_count": {cells * 2 ** 62}\n' in out
    assert json.loads(out)["summary"]["total_count"] == cells * 2 ** 62
    code, out = run(capsys, "consistency", str(path), "--r2", "2")
    assert code == 0
    assert json.loads(out)["feasible"] is True


# ---------------------------------------------------------------- fresh starts

#: a start of each subcommand, which may load numpy only as its handler
#: runs, and a usage error (exit 2) that loads none; then paths whose
#: handler imports its analysis module when it runs, beyond those
#: test_acceptance.py's determinism check starts; the last six are file
#: errors (exit 3) met after the handler's imports
FRESH_STARTS = {
    "dims": ["dims", "4", "3", "4"],
    "dims-usage": ["dims", "1", "2", "3"],
    "check": ["check", "{model}"],
    "fig3": ["fig3", "--z", "1.25", "--c1", "0.3", "--c2", "0.6"],
    "fiber": ["fiber", "{model}", "--n", "5", "--seed", "3"],
    "vertices": ["vertices", "{model}"],
    "consistency": ["consistency", "{marginal}", "--r2", "2"],
    "profile": ["profile", "{counts}", "{model}", "--steps", "5"],
    "emfit": ["emfit", "{counts}", "3", "2", "3", "--seed", "8"],
    "profile-q": ["profile", "{counts}", "{model}", "--q", "{q}", "--steps", "5"],
    "check-joint": ["check", "{joint}"],
    "vertices-b": ["vertices", "{model}", "--side", "b"],
    "consistency-csv": ["consistency", "{counts}", "--r2", "2"],
    "consistency-search": ["consistency", "{slack}", "--r2", "3",
                           "--restarts", "2", "--maxiter", "20"],
    "check-bad": ["check", "{bad}"],
    "fiber-bad": ["fiber", "{bad}"],
    "vertices-bad": ["vertices", "{bad}"],
    "consistency-bad": ["consistency", "{bad_csv}", "--r2", "2"],
    "profile-bad": ["profile", "{bad_csv}", "{model}"],
    "emfit-bad": ["emfit", "{bad_csv}", "3", "2", "3"],
}


@pytest.mark.parametrize("case", FRESH_STARTS)
def test_fresh_start_matches_in_process(capsys, tmp_path, model_file,
                                        counts_file, slack_file, case):
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({"shape": [2, 2, 2],
                                 "cells": [0.5, 0, 0, 0, 0, 0.5, 0, 0]}))
    q = tmp_path / "q.json"
    q.write_text(json.dumps({"q": [[0.9, 0.1], [0.2, 0.8]]}))
    marginal = tmp_path / "marginal.json"
    marginal.write_text(json.dumps({"shape": [3, 3], "cells": [1 / 9] * 9}))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("i,j,count\n1,1,1\n")
    files = {"model": model_file[0], "counts": counts_file, "slack": slack_file,
             "joint": joint, "q": q, "marginal": marginal, "bad": bad,
             "bad_csv": bad_csv}
    argv = [arg.format(**files) for arg in FRESH_STARTS[case]]
    code = main(argv)
    captured = capsys.readouterr()
    fresh = run_fresh("-m", "latentgeom", *argv)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
        code, captured.out, captured.err)
    assert code == (3 if case.endswith("-bad") else
                    2 if case.endswith("-usage") else 0)
    assert captured.err.count("\n") == (code != 0)


#: the oldest CPython that ``requires-python`` admits, and the minor
#: versions after it that a test looks for on PATH as ``python3.N``
OTHER_PYTHONS = [f"python3.{minor}" for minor in range(10, 16)]
#: prints what an interpreter is, or fails if it cannot start
WHO = ("import os, sys; print(sys.implementation.name, sys.version_info >= (3, 10),"
       " os.path.realpath(sys.executable))")


@pytest.mark.parametrize("python", OTHER_PYTHONS)
def test_dims_starts_alike_under_other_pythons(python):
    # the numpy-free path: dims and its usage error, byte for byte as under
    # the interpreter running the tests
    found = shutil.which(python)
    if found is None:
        pytest.skip(f"no {python} on PATH")
    who = run_fresh("-c", WHO, python=found)
    if who.returncode != 0:
        pytest.skip(f"{found} does not start (exit {who.returncode})")
    name, supported, executable = who.stdout.split(maxsplit=2)
    if name != "cpython" or supported != "True":
        pytest.skip(f"{found} is not a CPython >= 3.10")
    if executable.strip() == os.path.realpath(sys.executable):
        pytest.skip(f"{found} is the interpreter running the tests")
    for argv, code in ((["dims", "3", "2", "3"], 0), (["dims", "1", "2", "3"], 2)):
        here = run_fresh("-m", "latentgeom", *argv)
        there = run_fresh("-m", "latentgeom", *argv, python=found)
        assert here.returncode == code, here.stderr
        assert (there.returncode, there.stdout, there.stderr) == (
            code, here.stdout, here.stderr), argv


@pytest.mark.parametrize("argv, function, names", [
    (["consistency", "t.csv", "--r2", "2"], "consistency_check",
     ("tol", "restarts", "maxiter", "seed")),
    (["emfit", "c.csv", "3", "2", "3"], "em_fit_details",
     ("tol", "maxiter", "seed")),
])
def test_cli_defaults_are_the_library_defaults(argv, function, names):
    # each default is written in the parser and in the signature
    import inspect
    import latentgeom
    from latentgeom.cli import _build_parser
    args = vars(_build_parser().parse_args(argv))
    params = inspect.signature(getattr(latentgeom, function)).parameters
    for name in names:
        assert args[name] == params[name].default, name
        assert type(args[name]) is type(params[name].default), name
