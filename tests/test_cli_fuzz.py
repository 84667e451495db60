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

from latentgeom import joint_from_chain, marginal_13  # noqa: E402
from latentgeom.cli import main  # noqa: E402
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
