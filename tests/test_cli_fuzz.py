"""Property: every CLI input ends in exit 0, 2 or 3 with at most one line
on stderr, never a traceback.  Values are passed as ``--flag=value`` so
that negative numbers reach the handlers instead of argparse."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from latentgeom import (  # noqa: E402
    ChainParams,
    Shape,
    joint_from_chain,
    marginal_13,
    random_chain,
)
from latentgeom.cli import _fill, _fmt, _render_json, main  # noqa: E402
from conftest import seeded_chain  # noqa: E402

REALS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, 1e-310])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    marg = marginal_13(joint_from_chain(seeded_chain((3, 2, 3), 9)))
    marginal = work / "marg.json"
    marginal.write_text(json.dumps({"shape": [3, 3], "cells": list(marg.flat)}))
    draws = np.random.default_rng(4).multinomial(500, marg.flat).reshape(3, 3)
    counts = work / "counts.csv"
    counts.write_text("i,k,count\n" + "".join(
        f"{i + 1},{k + 1},{draws[i, k]}\n" for i in range(3) for k in range(3)))
    return str(marginal), str(counts)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(z=REALS, c1=REALS, c2=REALS)
def test_fig3_any_reals(z, c1, c2):
    code, out = run(["fig3", f"--z={z!r}", f"--c1={c1!r}", f"--c2={c2!r}",
                     "--samples=3"])
    assert "nan" not in out
    if not (math.isfinite(z) and z > 0 and 0 <= c1 <= 1 and 0 <= c2 <= 1):
        assert code == 2


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["consistency", "emfit"]), tol=REALS,
       maxiter=st.integers(-10, 20))
def test_em_budget_any_values(inputs, command, tol, maxiter):
    marginal, counts = inputs
    head = (["consistency", marginal, "--r2", "2", "--restarts", "2"]
            if command == "consistency" else ["emfit", counts, "3", "2", "3"])
    code, _ = run(head + [f"--tol={tol!r}", f"--maxiter={maxiter}"])
    valid = maxiter >= 0 and math.isfinite(tol) and tol > 0
    assert code == (0 if valid else 2)


# ------------------------------------------------------------ malformed files

SIZES = st.integers(-1, 6)
#: entries that int() would read as a size: truncation must not accept them
NEAR = st.sampled_from([2.0, 3.0, 2.9, 3.5, "2", "3", True])
ODD = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                st.text(max_size=3), st.sampled_from(["323", "33"]),
                st.booleans(), st.none(), st.lists(SIZES, max_size=2))
CELL = st.one_of(st.floats(0.0, 1.0),
                 st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 2.0]))


def shapes(length):
    """Shapes of every JSON kind: integer lists (of any length), lists with
    entries int() would truncate or parse, and bare scalars, strings, null
    and nested lists."""
    return st.one_of(st.lists(SIZES, min_size=length, max_size=length),
                     st.lists(st.one_of(SIZES, NEAR), min_size=length,
                              max_size=length),
                     st.lists(st.one_of(SIZES, NEAR, ODD), max_size=4), ODD)


def integer_shape(shape, length):
    return (isinstance(shape, list) and len(shape) == length
            and all(type(v) is int for v in shape))


@st.composite
def corrupted(draw, values, length):
    """A valid list (or list of rows) with entries replaced, the last row
    dropped or a row cut short."""
    values = [list(v) if isinstance(v, list) else v for v in values]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(values) - 1))
        if isinstance(values[at], list):
            if draw(st.booleans()):
                values[at] = values[at][:draw(st.integers(0, length))]
            elif values[at]:
                values[at][draw(st.integers(0, len(values[at]) - 1))] = \
                    draw(CELL)
        else:
            values[at] = draw(CELL)
    if draw(st.booleans()) and len(values) > 1:
        values = values[:-1]
    return values


@st.composite
def with_fault(draw, data, shape_length):
    """``data`` as it is, or with one fault: a redrawn shape, a corrupted
    field or a missing field."""
    data = dict(data)
    fields = [f for f in data if f != "shape"]
    faults = [None, "missing", *fields] + ["shape"] * bool(shape_length)
    fault = draw(st.sampled_from(faults))
    if fault == "shape":
        data["shape"] = draw(shapes(shape_length))
    elif fault == "missing":
        del data[draw(st.sampled_from(sorted(data)))]
    elif fault in fields:
        length = len(data[fault][0]) if isinstance(data[fault][0], list) \
            else len(data[fault])
        data[fault] = draw(corrupted(data[fault], length))
    return data


@st.composite
def json_inputs(draw):
    """Model, joint, marginal and q objects, each valid or with one fault."""
    params = seeded_chain((3, 2, 3), draw(st.integers(0, 3)))
    table = joint_from_chain(params)
    model = {"shape": [3, 2, 3], "p1": params.p1.tolist(),
             "a": params.a.tolist(), "b": params.b.tolist()}
    joint = {"shape": [3, 2, 3], "cells": table.flat.tolist()}
    marginal = {"shape": [3, 3], "cells": marginal_13(table).flat.tolist()}
    q = {"q": [[0.9, 0.1], [0.2, 0.8]]}
    return (draw(with_fault(model, 3)), draw(with_fault(joint, 3)),
            draw(with_fault(marginal, 2)), draw(with_fault(q, 0)))


FIELD = st.one_of(st.integers(1, 6).map(str),
                  st.sampled_from(["", "x", "1.5", "-1", "0", " 2 ", "1e3"]))


@st.composite
def counts_csvs(draw):
    """Counts files over indices 1-6, half of them with junk fields, wrong
    field counts or duplicate cells."""
    dirty = draw(st.booleans())
    header = "i,k,count"
    if dirty:
        header = draw(st.sampled_from([header, "i,k", "k,i,count"]))
    top = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(1, top), st.integers(1, top)),
                          max_size=9, unique=not dirty))
    lines = [header]
    for i, k in cells:
        fields = [str(i), str(k), str(draw(st.integers(0, 20)))]
        if dirty and draw(st.integers(0, 3)) == 0:
            fields[draw(st.integers(0, 2))] = draw(FIELD)
        if dirty and draw(st.integers(0, 9)) == 0:
            fields.append(draw(FIELD))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@settings(max_examples=80, deadline=None)
@given(files=json_inputs(), csv=counts_csvs())
def test_malformed_files_end_in_one_line(workdir, files, csv):
    model, joint, marginal, q = files
    paths = {}
    for name, data in (("model", model), ("joint", joint),
                       ("marginal", marginal), ("q", q)):
        paths[name] = str(workdir / f"{name}.json")
        (workdir / f"{name}.json").write_text(json.dumps(data))
    paths["counts"] = str(workdir / "counts.csv")
    (workdir / "counts.csv").write_text(csv)
    search = ["--r2", "2", "--restarts", "2", "--maxiter", "5"]
    model_ok = integer_shape(model.get("shape", [3, 2, 3]), 3)
    for argv, shape_ok in (
            (["check", paths["model"]], model_ok),
            (["check", paths["joint"]],
             integer_shape(joint.get("shape", [3, 2, 3]), 3)),
            (["vertices", paths["model"]], model_ok),
            (["consistency", paths["marginal"], *search],
             integer_shape(marginal.get("shape", [3, 3]), 2)),
            (["consistency", paths["counts"], *search], True),
            (["profile", paths["counts"], paths["model"], "--steps", "3"],
             model_ok),
            (["profile", paths["counts"], paths["model"], "--q", paths["q"],
              "--steps", "3"], model_ok),
            (["emfit", paths["counts"], "3", "2", "3", "--maxiter", "5"],
             True)):
        code, _ = run(argv)
        if not shape_ok:
            assert code == 3, argv


# ------------------------------------------------------------ renderer

def reference_fmt(x) -> str:
    """The renderer's scalar format as it was first written: one isinstance
    chain for every value."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if v != v or v in (float("inf"), float("-inf")):
            return json.dumps(str(v))
        return format(v, ".17g")
    raise TypeError(f"cannot format {type(x)!r}")


def reference_render_json(obj, indent: int = 0) -> str:
    """The JSON renderer as it was first written: arrays walked element by
    element, each element through :func:`reference_fmt`."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, ChainParams):
        return reference_render_json({"shape": list(obj.shape.astuple()),
                                      "p1": obj.p1, "a": obj.a, "b": obj.b},
                                     indent)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return reference_fmt(obj)
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        return reference_fmt(obj[()])
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: "
                 f"{reference_render_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        scalar = all(isinstance(v, (bool, np.bool_, int, np.integer,
                                    float, np.floating)) for v in seq)
        if scalar:
            return "[" + ", ".join(reference_fmt(v) for v in seq) + "]"
        items = [f"{inner}{reference_render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
     -1e-310, 2.2250738585072014e-308, 2.2250738585072009e-308,
     1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3])
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
SCALARS = st.one_of(
    FLOATS, st.integers(-10 ** 30, 10 ** 30), st.booleans(),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    INTS.map(np.int64), st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8), st.booleans().map(np.bool_))
SIDES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
#: floats drawn mostly finite, so that an array holds one inf or nan among
#: numbers the layout path would print
SPARSE_NONFINITE = st.floats(-2.0, 2.0) | st.sampled_from(
    [math.inf, -math.inf, math.nan])


@st.composite
def chains(draw):
    """Chain parameters of shapes 2..6, some with a row at the vertex
    (1, -0, 0, ...) of its simplex."""
    shape = Shape(*draw(st.tuples(*[st.integers(2, 6)] * 3)))
    params = random_chain(shape, np.random.default_rng(
        draw(st.integers(0, 2 ** 32 - 1))))
    if draw(st.booleans()):
        b = params.b.copy()
        b[-1] = 0.0
        b[-1, :2] = 1.0, -0.0
        params = ChainParams(shape, params.p1, params.a, b)
    return params


CHAINS = chains()
ARRAYS = st.one_of(
    hnp.arrays(np.float64, SIDES, elements=FLOATS),
    hnp.arrays(np.float64, SIDES, elements=SPARSE_NONFINITE),
    hnp.arrays(np.float64, (), elements=FLOATS),
    hnp.arrays(np.float32, (), elements=st.floats(width=32)),
    hnp.arrays(np.float32, SIDES, elements=st.floats(width=32)),
    hnp.arrays(np.int64, SIDES, elements=INTS),
    hnp.arrays(np.bool_, SIDES))
LEAVES = st.one_of(SCALARS, ARRAYS, st.none(), st.text(max_size=4), CHAINS,
                   st.lists(CHAINS, max_size=3))
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3) | st.integers(-3, 3), children,
                        max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(x=SCALARS)
def test_fmt_matches_reference(x):
    assert _fmt(x) == reference_fmt(x)


@settings(max_examples=300, deadline=None)
@given(obj=TREES)
def test_render_json_matches_reference(obj):
    assert _render_json(obj) == reference_render_json(obj)


@settings(max_examples=500, deadline=None)
@given(x=FLOATS)
def test_percent_format_is_format(x):
    # the layout templates rely on this for every float, finite or not
    assert "%.17g" % x == format(x, ".17g")


@settings(max_examples=300, deadline=None)
@given(values=st.lists(FLOATS, min_size=2, max_size=3).map(tuple))
def test_csv_row_matches_reference(values):
    template = ",".join(["%.17g"] * len(values))
    assert _fill(template, values) == ",".join(map(reference_fmt, values))
