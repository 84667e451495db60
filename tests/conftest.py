import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import latentgeom
from latentgeom import ChainParams, JointTable, MarginalTable, Shape, random_chain


def run_fresh(*args: str, stdout=subprocess.PIPE, python: str = sys.executable,
              **variables: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the same package
    as the tests and writes no bytecode, so it compiles what it imports;
    ``variables`` are set in its environment, ``stdout`` may be an open
    file in place of a pipe, and ``python`` names another interpreter."""
    package_root = str(Path(latentgeom.__file__).parents[1])
    env = dict(os.environ, **variables, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(
                   None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([python, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


def seeded_chain(shape: tuple[int, int, int], seed: int,
                 floor: float = 0.02) -> ChainParams:
    """Interior chain parameters, reproducible and away from the boundary."""
    return random_chain(Shape(*shape), np.random.default_rng(seed),
                        min_entry=floor)


def pushed_chain(shape: tuple[int, int, int], seed: int, block: str,
                 eps: float, row: int = 0) -> ChainParams:
    """A seeded chain whose first entry of p1, of a[row] or of b[row] is
    eps, its smallest entry."""
    params = seeded_chain(shape, seed)
    rows = {"p1": params.p1.copy(), "a": params.a.copy(), "b": params.b.copy()}
    pushed = rows[block] if block == "p1" else rows[block][row]
    pushed[1:] *= (1 - eps) / pushed[1:].sum()
    pushed[0] = eps
    out = ChainParams(params.shape, rows["p1"], rows["a"], rows["b"])
    assert out.min_entry == eps
    return out


def seeded_joint(shape: tuple[int, int, int], seed: int) -> JointTable:
    """A generic (not conditionally independent) joint table."""
    rng = np.random.default_rng(seed)
    sh = Shape(*shape)
    return JointTable.from_flat(sh, rng.dirichlet(np.ones(sh.ncells)))


def seeded_marginal(shape: tuple[int, int], seed: int) -> MarginalTable:
    rng = np.random.default_rng(seed)
    return MarginalTable(shape, rng.dirichlet(
        np.ones(shape[0] * shape[1])).reshape(shape))
