"""Core types and operations for the chain model Y1 -> Y2 -> Y3 with hidden Y2.

The joint table theta(i, j, k) = p(Y1 = i, Y2 = j, Y3 = k) is stored as an
array of shape (r1, r2, r3).  The flat (serialised) cell order is the
C-order raveling of that array: k fastest, then j, then i.  All indices in
the Python API are 0-based; the CLI layer converts to and from the 1-based
convention used in its CSV files.

Conditional independence Y1 _||_ Y3 | Y2 is equivalent to the system of
s = r2 (r1 - 1)(r3 - 1) quadric residuals

    theta(I, j, K) theta(i, j, k) - theta(I, j, k) theta(i, j, K) = 0

for a fixed reference cell (I, K) and i != I, k != K.  Everything in this
module is a pure function of immutable values; arrays are frozen after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import BoundaryPoint, InvalidParameter

#: absolute tolerance for "sums to one" invariants
SUM_TOL = 1e-12
#: entries must exceed this for a point to count as interior
INTERIOR_EPS = 1e-9
#: relative singular-value cutoff for numerical ranks
RANK_CUTOFF = 1e-8


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Shape:
    """Cardinalities (r1, r2, r3) of the three variables; each must be >= 2."""

    r1: int
    r2: int
    r3: int

    def __post_init__(self):
        for name in ("r1", "r2", "r3"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise InvalidParameter(f"{name} must be an integer, got {v!r}")
            if v < 2:
                raise InvalidParameter(f"{name} must be >= 2, got {v}")
            object.__setattr__(self, name, int(v))

    def astuple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)

    @property
    def ncells(self) -> int:
        return self.r1 * self.r2 * self.r3


@dataclass(frozen=True)
class JointTable:
    """Full probability table over (Y1, Y2, Y3).

    ``cells[i, j, k]`` holds theta(i, j, k); cells are nonnegative and sum
    to one within 1e-12.  Zero cells are allowed: boundary points are part
    of the geometry.
    """

    shape: Shape
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        expected = self.shape.astuple()
        if cells.shape != expected:
            raise InvalidParameter(
                f"cells have shape {cells.shape}, expected {expected}"
            )
        if not np.isfinite(cells).all():
            raise InvalidParameter("cells contain non-finite values")
        if (cells < 0).any():
            idx = tuple(int(x) for x in np.argwhere(cells < 0)[0])
            raise InvalidParameter(f"cell {idx} is negative: {cells[idx]!r}")
        total = float(cells.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidParameter(f"cells sum to {total!r}, not 1 within {SUM_TOL}")
        object.__setattr__(self, "cells", _frozen(cells))

    @classmethod
    def from_flat(cls, shape: Shape, flat: Sequence[float]) -> "JointTable":
        """Build from the documented flat order (k fastest, then j, then i)."""
        arr = np.asarray(flat, dtype=float)
        if arr.size != shape.ncells:
            raise InvalidParameter(
                f"flat table has {arr.size} entries, expected {shape.ncells}"
            )
        return cls(shape, arr.reshape(shape.astuple()))

    @property
    def flat(self) -> np.ndarray:
        """Cells in the documented flat order."""
        return self.cells.ravel()

    @property
    def interior(self) -> bool:
        """True iff every cell is strictly positive."""
        return bool((self.cells > 0).all())


def _check_stochastic_rows(name: str, rows: np.ndarray) -> None:
    if not np.isfinite(rows).all():
        raise InvalidParameter(f"{name} contains non-finite values")
    if (rows < 0).any():
        idx = tuple(int(x) for x in np.argwhere(rows < 0)[0])
        raise InvalidParameter(f"{name}{idx} is negative: {rows[idx]!r}")
    sums = rows.sum(axis=-1)
    bad = np.abs(sums - 1.0) > SUM_TOL
    if bad.any():
        which = int(np.flatnonzero(bad.ravel())[0])
        raise InvalidParameter(
            f"row {which} of {name} sums to {sums.ravel()[which]!r}, not 1"
        )


@dataclass(frozen=True)
class ChainParams:
    """Minimal chain parametrisation: p(Y1), p(Y2|Y1) and p(Y3|Y2).

    ``p1`` has length r1, ``a`` is the r1 x r2 row-stochastic table
    p(Y2 = j | Y1 = i) and ``b`` the r2 x r3 table p(Y3 = k | Y2 = j).
    """

    shape: Shape
    p1: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        r1, r2, r3 = self.shape.astuple()
        p1 = np.asarray(self.p1, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if p1.shape != (r1,):
            raise InvalidParameter(f"p1 has shape {p1.shape}, expected ({r1},)")
        if a.shape != (r1, r2):
            raise InvalidParameter(f"a has shape {a.shape}, expected ({r1}, {r2})")
        if b.shape != (r2, r3):
            raise InvalidParameter(f"b has shape {b.shape}, expected ({r2}, {r3})")
        _check_stochastic_rows("p1", p1[None, :])
        _check_stochastic_rows("a", a)
        _check_stochastic_rows("b", b)
        object.__setattr__(self, "p1", _frozen(p1))
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))

    @property
    def min_entry(self) -> float:
        return float(min(self.p1.min(), self.a.min(), self.b.min()))

    @property
    def interior(self) -> bool:
        return self.min_entry > 0.0


@dataclass(frozen=True)
class MarginalTable:
    """Observed two-way table delta(i, k) = p(Y1 = i, Y3 = k)."""

    shape: tuple[int, int]
    cells: np.ndarray

    def __post_init__(self):
        shape = (int(self.shape[0]), int(self.shape[1]))
        if shape[0] < 1 or shape[1] < 1:
            raise InvalidParameter(f"invalid marginal shape {shape}")
        object.__setattr__(self, "shape", shape)
        cells = np.asarray(self.cells, dtype=float)
        if cells.shape != shape:
            raise InvalidParameter(
                f"cells have shape {cells.shape}, expected {shape}"
            )
        if not np.isfinite(cells).all():
            raise InvalidParameter("cells contain non-finite values")
        if (cells < 0).any():
            idx = tuple(int(x) for x in np.argwhere(cells < 0)[0])
            raise InvalidParameter(f"cell {idx} is negative: {cells[idx]!r}")
        total = float(cells.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidParameter(f"cells sum to {total!r}, not 1 within {SUM_TOL}")
        object.__setattr__(self, "cells", _frozen(cells))

    @property
    def flat(self) -> np.ndarray:
        return self.cells.ravel()


class DimsCase(Enum):
    """Which regime the shape falls in: r2 >= min(r1, r3) or r2 < min(r1, r3)."""

    R2_LARGE = "R2Large"
    R2_SMALL = "R2Small"


@dataclass(frozen=True)
class Dims:
    """Dimension bookkeeping for one shape.

    d      ambient simplex dimension r1 r2 r3 - 1
    t      model dimension r1 r2 + r2 r3 - r2 - 1 (equals d - s)
    s      number of irredundant quadrics r2 (r1 - 1)(r3 - 1)
    m      dimension of the marginal space actually reachable
    fiber  dimension of the unidentifiable set, t - m
    constraint_count  (r1 - r2)(r3 - r2) marginal constraints in the small-r2
                      case, 0 otherwise
    """

    d: int
    t: int
    s: int
    m: int
    fiber: int
    case: DimsCase
    constraint_count: int

    def __post_init__(self):
        if self.t != self.d - self.s:
            raise InvalidParameter("t != d - s")
        if self.fiber != self.t - self.m:
            raise InvalidParameter("fiber != t - m")


def dims(shape: Shape) -> Dims:
    """Dimension accounting for the chain model at the given shape.

    In the large-r2 case (r2 >= min(r1, r3)) the marginal space is the full
    simplex, m = r1 r3 - 1, and the fiber picks up the remainder
    t - m = r2 (r1 + r3 - 1) - r1 r3.  In the small-r2 case the fiber has
    dimension r2 (r2 - 1) and the marginal loses (r1 - r2)(r3 - r2)
    dimensions.
    """
    r1, r2, r3 = shape.astuple()
    d = r1 * r2 * r3 - 1
    t = r1 * r2 + r2 * r3 - r2 - 1
    s = r2 * (r1 - 1) * (r3 - 1)
    if r2 >= min(r1, r3):
        case = DimsCase.R2_LARGE
        m = r1 * r3 - 1
        fiber = t - m
        constraints = 0
    else:
        case = DimsCase.R2_SMALL
        fiber = r2 * (r2 - 1)
        m = t - fiber
        constraints = (r1 - r2) * (r3 - r2)
    return Dims(d=d, t=t, s=s, m=m, fiber=fiber, case=case,
                constraint_count=constraints)


def joint_from_chain(params: ChainParams) -> JointTable:
    """Forward map theta(i, j, k) = p1(i) a(i, j) b(j, k)."""
    cells = np.einsum("i,ij,jk->ijk", params.p1, params.a, params.b)
    return JointTable(params.shape, cells)


def marginal_13(joint: JointTable) -> MarginalTable:
    """Sum out the hidden variable: delta(i, k) = sum_j theta(i, j, k)."""
    r1, _, r3 = joint.shape.astuple()
    return MarginalTable((r1, r3), joint.cells.sum(axis=1))


def ci_residuals(joint: JointTable, ref_cell: tuple[int, int] = (0, 0)) -> np.ndarray:
    """All s quadric residuals of conditional independence, in a fixed order.

    For reference cell (I, K), the residual for (j, i, k) is

        theta(I, j, K) theta(i, j, k) - theta(I, j, k) theta(i, j, K)

    enumerated with j outermost, then i (ascending, skipping I), then k
    (ascending, skipping K).  Zero cells are allowed; the residuals stay
    defined on the boundary.
    """
    r1, r2, r3 = joint.shape.astuple()
    ref_i, ref_k = int(ref_cell[0]), int(ref_cell[1])
    if not (0 <= ref_i < r1 and 0 <= ref_k < r3):
        raise InvalidParameter(f"reference cell {ref_cell} out of range")
    th = joint.cells.transpose(1, 0, 2)
    # every (j, i, k); the residuals at i = I or k = K vanish and are dropped
    res = (th[:, ref_i, None, ref_k, None] * th
           - th[:, ref_i, None, :] * th[:, :, ref_k, None])
    return res[:, np.arange(r1) != ref_i][:, :, np.arange(r3) != ref_k].ravel()


@dataclass(frozen=True)
class DagSpec:
    """A directed acyclic graph given in topological order.

    ``nodes`` lists (name, cardinality) pairs; ``parents`` maps a node name
    to the set of its parents, all of which must appear earlier in
    ``nodes``.  Cardinalities must be >= 2.
    """

    nodes: tuple[tuple[str, int], ...]
    parents: Mapping[str, frozenset[str]]

    def __post_init__(self):
        nodes = tuple((str(n), int(c)) for n, c in self.nodes)
        names = [n for n, _ in nodes]
        if len(set(names)) != len(names):
            raise InvalidParameter("duplicate node names")
        for n, c in nodes:
            if c < 2:
                raise InvalidParameter(f"cardinality of {n!r} must be >= 2, got {c}")
        seen: set[str] = set()
        parents = {}
        for n, _ in nodes:
            ps = frozenset(self.parents.get(n, frozenset()))
            for p in ps:
                if p not in seen:
                    raise InvalidParameter(
                        f"parent {p!r} of {n!r} does not precede it"
                    )
            parents[n] = ps
            seen.add(n)
        extra = set(self.parents) - set(names)
        if extra:
            raise InvalidParameter(f"parents given for unknown nodes {sorted(extra)}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parents", parents)


def dag_dimension(spec: DagSpec) -> int:
    """Parameter count of a DAG model: sum over nodes of
    (product of parent cardinalities) * (own cardinality - 1)."""
    cards = dict(spec.nodes)
    total = 0
    for name, card in spec.nodes:
        pdim = 1
        for p in spec.parents[name]:
            pdim *= cards[p]
        total += pdim * (card - 1)
    return total


@dataclass(frozen=True)
class DecomposableSpec:
    """Cliques C_1..C_m and separators S_2..S_m of a decomposable graph.

    Each separator must be a nonempty subset of its own clique and of some
    earlier clique (running intersection).  ``cards`` maps node names to
    cardinalities >= 2.
    """

    cards: Mapping[str, int]
    cliques: tuple[frozenset[str], ...]
    separators: tuple[frozenset[str], ...]

    def __post_init__(self):
        cards = {str(n): int(c) for n, c in dict(self.cards).items()}
        for n, c in cards.items():
            if c < 2:
                raise InvalidParameter(f"cardinality of {n!r} must be >= 2, got {c}")
        cliques = tuple(frozenset(c) for c in self.cliques)
        seps = tuple(frozenset(s) for s in self.separators)
        if not cliques:
            raise InvalidParameter("at least one clique required")
        if len(seps) != len(cliques) - 1:
            raise InvalidParameter(
                f"{len(cliques)} cliques require {len(cliques) - 1} separators, "
                f"got {len(seps)}"
            )
        mentioned = set().union(*cliques, *seps)
        unknown = mentioned - set(cards)
        if unknown:
            raise InvalidParameter(f"no cardinality for nodes {sorted(unknown)}")
        for idx, sep in enumerate(seps):
            pos = idx + 1  # separator S_{pos+1} sits between clique pos and earlier ones
            if not sep:
                raise InvalidParameter(
                    f"separator {pos + 1} is empty (disconnected cliques rejected)"
                )
            if not sep <= cliques[pos]:
                raise InvalidParameter(
                    f"separator {pos + 1} is not contained in clique {pos + 1}"
                )
            if not any(sep <= cliques[j] for j in range(pos)):
                raise InvalidParameter(
                    f"separator {pos + 1} violates running intersection: "
                    f"not contained in any earlier clique"
                )
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "cliques", cliques)
        object.__setattr__(self, "separators", seps)


def decomposable_dimension(spec: DecomposableSpec) -> int:
    """Dimension of a decomposable model as an alternating sum of saturated
    clique and separator dimensions: sum (cells(C) - 1) - sum (cells(S) - 1).

    The (cells - 1) form telescopes to the DAG parameter count of any
    perfect ordering of the same graph; the raw cell-count alternating sum
    would overcount by the number of separators.
    """
    def block_dim(nodes: frozenset[str]) -> int:
        cells = 1
        for n in nodes:
            cells *= spec.cards[n]
        return cells - 1

    return sum(block_dim(c) for c in spec.cliques) \
        - sum(block_dim(s) for s in spec.separators)


def chain_dag(shape: Shape) -> DagSpec:
    """The DAG Y1 -> Y2 -> Y3 at the given cardinalities."""
    r1, r2, r3 = shape.astuple()
    return DagSpec(
        nodes=(("Y1", r1), ("Y2", r2), ("Y3", r3)),
        parents={"Y2": frozenset({"Y1"}), "Y3": frozenset({"Y2"})},
    )


def chain_decomposition(shape: Shape) -> DecomposableSpec:
    """Clique/separator form {Y1 Y2}, {Y2 Y3} / {Y2} of the chain."""
    r1, r2, r3 = shape.astuple()
    return DecomposableSpec(
        cards={"Y1": r1, "Y2": r2, "Y3": r3},
        cliques=(frozenset({"Y1", "Y2"}), frozenset({"Y2", "Y3"})),
        separators=(frozenset({"Y2"}),),
    )


def _numerical_rank(mat: np.ndarray) -> int:
    """Count singular values above ``RANK_CUTOFF`` times the largest."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_CUTOFF * sv[0]))


def _row_chart_jacobian(n: int) -> np.ndarray:
    """Derivative (n x (n - 1)) of a probability row with respect to its
    chart coordinates, the first n - 1 entries; the last entry is one minus
    their sum."""
    d = np.eye(n, n - 1)
    d[-1] = -1.0
    return d


def _clique_margin_jacobian(params: ChainParams) -> np.ndarray:
    """Jacobian of the clique-margin map x -> (u, v) at ``params``.

    u(i, j) = theta(i, j, +) = p1(i) a(i, j) and v(j, k) = theta(+, j, k)
    = m(j) b(j, k) with m = p1 @ a.  Rows are u then v, each in C order;
    columns are the minimal chart p1[:-1], a[:, :-1], b[:, :-1] (C order).
    """
    r1, r2, r3 = params.shape.astuple()
    p1, a, b = params.p1, params.a, params.b
    d1, d2, d3 = (_row_chart_jacobian(n) for n in (r1, r2, r3))
    rows1, rows2 = np.arange(r1), np.arange(r2)
    # u(i, j) depends on a only through row i, v(j, k) on b only through row j
    du_da = np.zeros((r1, r2, r1, r2 - 1))
    du_da[rows1, :, rows1, :] = np.einsum("i,jq->ijq", p1, d2)
    dv_db = np.zeros((r2, r3, r2, r3 - 1))
    dv_db[rows2, :, rows2, :] = np.einsum("j,kq->jkq", p1 @ a, d3)
    nu, nv = r1 * r2, r2 * r3
    return np.block([
        [np.einsum("ij,il->ijl", a, d1).reshape(nu, r1 - 1),
         du_da.reshape(nu, r1 * (r2 - 1)),
         np.zeros((nu, r2 * (r3 - 1)))],
        [np.einsum("il,ij,jk->jkl", d1, a, b).reshape(nv, r1 - 1),
         np.einsum("l,jq,jk->jklq", p1, d2, b).reshape(nv, r1 * (r2 - 1)),
         dv_db.reshape(nv, r2 * (r3 - 1))],
    ])


def jacobian_rank(params: ChainParams) -> int:
    """Numerical rank of the parametrisation map at an interior point.

    The map runs from the minimal chart (one coordinate dropped per
    probability row) to the joint table.  Its rank is read off the
    closed-form Jacobian of the clique margins u(i, j) = theta(i, j, +)
    and v(j, k) = theta(+, j, k) instead of the cells: (u, v) is linear in
    theta, and on the open simplex theta(i, j, k) = u(i, j) v(j, k) / m(j)
    with m(j) = sum_i u(i, j) is a smooth function of (u, v), so both maps
    have the same Jacobian rank.  The clique-margin matrix has
    r1 r2 + r2 r3 rows instead of r1 r2 r3.  Singular values above
    ``RANK_CUTOFF`` times the largest count toward the rank.
    """
    if params.min_entry <= INTERIOR_EPS:
        raise BoundaryPoint(
            f"min parameter entry {params.min_entry:.3e} <= {INTERIOR_EPS}; "
            "the rank statement holds on the open simplex only"
        )
    return _numerical_rank(_clique_margin_jacobian(params))


def random_chain(shape: Shape, rng: np.random.Generator,
                 min_entry: float = 0.0) -> ChainParams:
    """Draw chain parameters with every stochastic row flat on its simplex.

    ``min_entry > 0`` redraws any row whose smallest entry does not exceed
    it, which keeps seeded test models away from the boundary.
    """
    def row(n: int) -> np.ndarray:
        for _ in range(1000):
            r = rng.dirichlet(np.ones(n))
            if r.min() > min_entry:
                return r
        raise InvalidParameter(f"could not draw a row with min entry > {min_entry}")

    r1, r2, r3 = shape.astuple()
    p1 = row(r1)
    a = np.vstack([row(r2) for _ in range(r1)])
    b = np.vstack([row(r3) for _ in range(r2)])
    return ChainParams(shape, p1, a, b)
