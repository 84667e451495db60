"""Command-line surface: file ingestion, analyses, CSV/JSON emission.

Every subcommand is a pure function of its inputs; fiber, consistency
and emfit, the subcommands that draw random numbers, also take --seed.
Repeated runs are byte-identical.  Floats print with 17 significant digits
so values round-trip exactly: a finite x as ``'%.17g' % x``, the same text as
``format(x, '.17g')``, and one ``%`` fills the layout of a whole float array,
chain or CSV row.  Indices in CLI files and flags (counts CSV, --ref-cell,
reported cells) are 1-based; the Python API underneath is 0-based.

Exit codes: 0 for completed analyses (an infeasible marginal or a missing
intersection is a result, not a failure), 2 for usage errors, 3 for
malformed input files and for output that cannot be written.

File formats
------------
model JSON     {"shape": [r1, r2, r3], "p1": [...], "a": [[...]], "b": [[...]]}
joint JSON     {"shape": [r1, r2, r3], "cells": [... r1*r2*r3 floats ...]}
               (flat order: k fastest, then j, then i)
marginal JSON  {"shape": [r1, r3], "cells": [... r1*r3 floats, k fastest ...]}
q JSON         {"q": [[...]]}
counts CSV     header "i,k,count", 1-based indices, missing cells are 0

A shape is a JSON list of integers of its length.  Without a model to
give it, a counts table has as many rows and columns as the largest i and
k listed; list a cell of an all-zero last row or column with count 0 to
keep it.  MAX_COUNT_CELLS bounds counts tables, the r1 x r2 x r3 joint
table of consistency and emfit, and fig3 --samples, fiber --n and profile
--steps: past it a file's counts table is exit 3, anything else exit 2.

:func:`main` may be called repeatedly in one process; the argument parser
is built on the first call and shared by the later ones.  The module
imports only :mod:`shapes` and :mod:`errors`; each subcommand imports the
rest of what it uses, numpy included, when it runs, so a start of ``dims``
loads no numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    GeometryError,
    InvalidParameter,
    NoRealSolution,
    PathExitsPolytope,
    ZeroCell,
)
from .shapes import Shape, _check_count, dims

if TYPE_CHECKING:
    from . import model
    from .fiber import MixingMatrix
    from .likelihood import CountTable

USAGE_ERROR = 2
FILE_ERROR = 3
#: the most cells a counts table (rows x columns) or the joint table of a
#: fitted chain (r1 x r2 x r3) may have, and the most values --samples, --n
#: and --steps may ask for; a larger size is refused before allocation
MAX_COUNT_CELLS = 10 ** 6


class CliFileError(Exception):
    """A named input file cannot be parsed or violates its schema."""


# ---------------------------------------------------------------------------
# deterministic rendering

def _fmt(x) -> str:
    if type(x) is float:
        # x - x is 0.0 exactly when x is finite
        return format(x, ".17g") if x - x == 0.0 else json.dumps(str(x))
    np = sys.modules.get("numpy")
    if isinstance(x, bool) or np is not None and isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, int) or np is not None and isinstance(x, np.integer):
        return str(int(x))
    if np is not None and isinstance(x, np.floating):
        return _fmt(float(x))
    raise TypeError(f"cannot format {type(x)!r}")


def _fill(template: str, values: tuple) -> str:
    """``template``'s ``%.17g`` slots filled by ``values`` as :func:`_fmt`
    prints them; only inf and nan print an n, which :func:`_fmt` quotes."""
    text = template % values
    if "n" in text:
        text = template.replace("%.17g", "%s") % tuple(map(_fmt, values))
    return text


@functools.lru_cache(maxsize=256)
def _layout(shape: tuple[int, ...] | Shape, indent: int) -> str:
    """What :func:`_render_json` prints at ``indent`` for a non-empty float
    array of ``shape`` or for a chain of that :class:`Shape`, with a
    ``%.17g`` slot per value: in C order, and p1, a, b for a chain."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(shape, Shape):
        r1, r2, r3 = shape.astuple()
        fields = [f'"shape": [{r1}, {r2}, {r3}]'] + [
            f'"{name}": {_layout(sides, indent + 1)}'
            for name, sides in (("p1", (r1,)), ("a", (r1, r2)), ("b", (r2, r3)))]
        return "{\n" + ",\n".join(inner + f for f in fields) + "\n" + pad + "}"
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    rows = [inner + _layout(shape[1:], indent + 1)] * shape[0]
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]"


def _render_json(obj, indent: int = 0) -> str:
    # a value can be a numpy array or scalar only once numpy is loaded, and
    # a chain only once the model module is; the scalars are _fmt's
    np = sys.modules.get("numpy")
    scalars = (float, int) if np is None else (
        float, int, np.floating, np.integer, np.bool_)
    if np is not None:
        if isinstance(obj, np.ndarray):
            if obj.dtype.kind == "f" and obj.ndim and obj.size:
                return _fill(_layout(obj.shape, indent), tuple(obj.ravel().tolist()))
            obj = obj.tolist()
        model = sys.modules.get("latentgeom.model")
        if model is not None and isinstance(obj, model.ChainParams):
            return _fill(_layout(obj.shape, indent), tuple(
                obj.p1.tolist() + obj.a.ravel().tolist() + obj.b.ravel().tolist()))
    if isinstance(obj, scalars):
        return _fmt(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    pad, inner = "  " * indent, "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {_render_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, scalars) for v in obj):
            return "[" + ", ".join(map(_fmt, obj)) + "]"
        items = [f"{inner}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


def _emit(text: str, output: str | None) -> None:
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:
        if output is None:
            # the flush at exit writes what is left to devnull, not fails again
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise CliFileError(f"{output or '<stdout>'}: {exc}") from exc


# ---------------------------------------------------------------------------
# file ingestion (all raising CliFileError on malformed content)

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliFileError(f"{path}: {exc}") from exc


class _Fields(dict):
    """A JSON object whose missing fields raise a one-line error."""

    def __missing__(self, field: str):
        raise ValueError(f"missing field {field!r}")


def _load(path: str, build):
    """Parse the JSON object in ``path`` and return ``build`` of its fields;
    every failure is one :class:`CliFileError` naming the file."""
    raw = _read(path)
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliFileError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal too long to convert, or nesting too deep
        raise CliFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliFileError(f"{path}: top-level JSON object expected")
    try:
        return build(_Fields(data))
    except (GeometryError, OverflowError, TypeError, ValueError) as exc:
        raise CliFileError(f"{path}: {exc}") from exc


def _shape(data: _Fields, length: int) -> list[int]:
    """The ``shape`` field: a list of ``length`` integers, read as given."""
    shape = data["shape"]
    if not (isinstance(shape, list) and len(shape) == length
            and all(type(v) is int for v in shape)):
        raise ValueError(f"shape must be a list of {length} integers, "
                         f"got {shape!r}")
    return shape


def _model(data: _Fields) -> model.ChainParams:
    from . import model
    return model.ChainParams(Shape(*_shape(data, 3)),
                             data["p1"], data["a"], data["b"])


def _joint(data: _Fields) -> model.JointTable:
    from . import model
    return model.JointTable.from_flat(Shape(*_shape(data, 3)),
                                      data["cells"])


def _marginal(data: _Fields) -> model.MarginalTable:
    from . import model
    r1, r3 = _shape(data, 2)
    cells = model._reals(data["cells"], "cells must be real numbers")
    return model.MarginalTable((r1, r3), cells.reshape(r1, r3))


def _q(data: _Fields) -> MixingMatrix:
    from .fiber import MixingMatrix
    return MixingMatrix(data["q"])


def _too_many_cells(what: str, *sizes: int) -> str:
    """Why a ``what`` of the given sizes is refused, or '' when it is not."""
    if math.prod(sizes) <= MAX_COUNT_CELLS:
        return ""
    return (f"a {' x '.join(map(str, sizes))} {what} exceeds the limit of "
            f"{MAX_COUNT_CELLS} cells")


def _check_length(flag: str, value: int) -> None:
    """Refuse a flag that asks for more than MAX_COUNT_CELLS values."""
    if value > MAX_COUNT_CELLS:
        raise CliUsageError(f"{flag} must be at most {MAX_COUNT_CELLS}, got {value}")


def load_counts(path: str, shape: tuple[int, int] | None = None) -> CountTable:
    """Counts CSV with header ``i,k,count`` and 1-based indices; without
    ``shape``, the largest i and k listed give the table's size."""
    import numpy as np
    from .likelihood import CountTable
    lines = _read(path).splitlines()
    rows: list[tuple[int, int, int]] = []
    body = [ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")]
    if not body or [f.strip() for f in body[0].split(",")] != ["i", "k", "count"]:
        raise CliFileError(f"{path}: expected header 'i,k,count'")
    for lineno, ln in enumerate(body[1:], start=2):
        parts = [f.strip() for f in ln.split(",")]
        if len(parts) != 3:
            raise CliFileError(f"{path}:{lineno}: expected 3 fields")
        try:
            i, k, c = (int(p) for p in parts)
        except ValueError as exc:
            raise CliFileError(f"{path}:{lineno}: {exc}") from exc
        if i < 1 or k < 1:
            raise CliFileError(f"{path}:{lineno}: indices are 1-based")
        if c < 0:
            raise CliFileError(f"{path}:{lineno}: negative count")
        rows.append((i, k, c))
    if not rows:
        raise CliFileError(f"{path}: no count rows")
    if shape is None:
        shape = (max(r[0] for r in rows), max(r[1] for r in rows))
    if too_large := _too_many_cells("counts table", *shape):
        raise CliFileError(f"{path}: {too_large}")
    counts = np.zeros(shape, dtype=np.int64)
    seen = set()
    try:
        for i, k, c in rows:
            if i > shape[0] or k > shape[1]:
                raise CliFileError(f"{path}: cell ({i}, {k}) outside shape {shape}")
            if (i, k) in seen:
                raise CliFileError(f"{path}: duplicate cell ({i}, {k})")
            seen.add((i, k))
            # a count beyond int64 raises OverflowError
            counts[i - 1, k - 1] = c
        return CountTable(shape, counts)
    except (InvalidParameter, OverflowError) as exc:
        raise CliFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def cmd_dims(args: argparse.Namespace) -> int:
    d = dims(Shape(args.r1, args.r2, args.r3))
    report = {
        "d": d.d, "t": d.t, "s": d.s, "m": d.m, "fiber": d.fiber,
        "case": d.case.value, "constraints": d.constraint_count,
    }
    _emit(_render_json(report) + "\n", args.output)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from . import model, reparam
    source = _load(args.file,
                   lambda data: (_model if "p1" in data else _joint)(data))
    if isinstance(source, model.ChainParams):
        kind, joint = "model", model.joint_from_chain(source)
    else:
        kind, joint = "joint", source
    ref_i, ref_k = args.ref_cell
    r1, _, r3 = joint.shape.astuple()
    if not (1 <= ref_i <= r1 and 1 <= ref_k <= r3):
        raise CliUsageError(
            f"--ref-cell {ref_i} {ref_k} out of range for a {r1} x {r3} marginal")
    ref0 = (ref_i - 1, ref_k - 1)
    residuals = model.ci_residuals(joint, ref0)
    marginal, lambdas = reparam.split(joint)
    report = {
        "kind": kind,
        "shape": list(joint.shape.astuple()),
        "ref_cell": [ref_i, ref_k],
        "ci_residuals": {
            "count": residuals.size,
            "max_abs": float(abs(residuals).max()),
            "values": residuals,
        },
        "marginal": marginal.flat,
        "lambda": {
            "values": lambdas.values.ravel(),
            "unconstrained_cells": [
                [int(i) + 1, int(k) + 1]
                for i, k in zip(*lambdas.unconstrained.nonzero())
            ],
        },
    }
    try:
        z = reparam.cross_ratios(marginal, ref0)
        report["cross_ratios"] = z.values
        report["zero_cell"] = None
        report["identity_residual_323"] = (
            reparam.marginal_identity_323(z) if z.values.shape == (2, 2) else None)
    except ZeroCell as exc:
        report["cross_ratios"] = None
        report["zero_cell"] = [exc.cell[0] + 1, exc.cell[1] + 1]
        report["identity_residual_323"] = None
    _emit(_render_json(report) + "\n", args.output)
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    from . import reparam
    z, c1, c2 = args.z, args.c1, args.c2
    # the solver validates z, c1 and c2 before the curves divide by z
    try:
        points = reparam.binary_fiber_solve(z, c1, c2).points
    except NoRealSolution:
        points = None
    _check_count("--samples", args.samples, 0)
    _check_length("--samples", args.samples)
    lines = [
        "# binary fiber cross-section at fixed lam(2,1) = c1, lam(1,2) = c2",
        "# z = d(1,1) d(2,2) / (d(1,2) d(2,1)); swapping the marginal's rows "
        "(or columns) maps z to 1/z",
        "curve,x,y",
    ]
    s = 1.0 - (1.0 - c1 - c2) / z
    p = max(0.0, c1 * c2 / z)  # 0.0, not -0.0, when c1 or c2 is -0.0
    xs = [(i + 1) / (args.samples + 1) for i in range(args.samples)]
    xy = "%.17g,%.17g"
    lines += ["line," + _fill(xy, (x, s - x)) for x in xs]
    lines += ["hyperbola," + _fill(xy, (x, p / x)) for x in xs]
    if points is None:
        lines.append("# warning: no real intersection")
    else:
        lines += ["intersection," + _fill(xy, point) for point in points]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_fiber(args: argparse.Namespace) -> int:
    from .fiber import sample_fiber
    params = _load(args.file, _model)
    _check_length("--n", args.n)
    points = sample_fiber(params, args.n, seed=args.seed)
    _emit(_render_json(points) + "\n", args.output)
    return 0


def cmd_vertices(args: argparse.Namespace) -> int:
    from .fiber import extreme_mixings
    params = _load(args.file, _model)
    out = []
    for vertex in extreme_mixings(params, side=args.side):
        out.append({
            "pi": float(vertex.q.q[0, 0]),
            "rho": float(vertex.q.q[1, 0]),
            "q": vertex.q.q,
            "branch": vertex.branch,
            "zeros": [
                {"matrix": mat, "row": r + 1, "col": c + 1}
                for mat, r, c in vertex.zeros
            ],
        })
    _emit(_render_json(out) + "\n", args.output)
    return 0


def cmd_consistency(args: argparse.Namespace) -> int:
    from . import identifiability, model
    path = args.file
    if path.endswith(".csv"):
        counts = load_counts(path)
        # the exact total may exceed int64; as a float it divides as before
        cells = counts.counts / float(counts.total)
        target = model.MarginalTable(counts.shape, cells)
    else:
        target = _load(path, _marginal)
    r1, r3 = target.shape
    if too_large := _too_many_cells("joint table", r1, args.r2, r3):
        raise CliUsageError(too_large)
    report = identifiability.consistency_check(
        target, args.r2, restarts=args.restarts, tol=args.tol, seed=args.seed,
        maxiter=args.maxiter)
    payload = {
        "feasible": report.feasible,
        "best_divergence": report.best_divergence,
        "necessary_checks": {k: ("pass" if v else "fail")
                             for k, v in report.necessary_checks.items()},
        "proven_by": report.proven_infeasible_by,
        "tol": report.tol,
        "witness": report.witness,
    }
    _emit(_render_json(payload) + "\n", args.output)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from . import likelihood
    from .fiber import extreme_mixings
    params = _load(args.model, _model)
    r1, _, r3 = params.shape.astuple()
    counts = load_counts(args.counts, shape=(r1, r3))
    if args.q is not None:
        q_end = _load(args.q, _q)
    else:
        vertices = extreme_mixings(params, side=args.side)
        if not 0 <= args.vertex < len(vertices):
            raise CliUsageError(
                f"--vertex {args.vertex} out of range (have {len(vertices)})")
        q_end = vertices[args.vertex].q
    _check_length("--steps", args.steps)
    lines = ["t,loglik,min_entry"]
    row = "%.17g,%.17g,%.17g"
    try:
        trace = likelihood.profile_along_fiber(counts, params, q_end, args.steps)
        lines += [_fill(row, values) for values in zip(
            trace.t.tolist(), trace.loglik.tolist(), trace.min_entry.tolist())]
    except PathExitsPolytope as exc:
        lines += [_fill(row, values) for values in exc.prefix]
        lines.append(f"# path exits polytope at t={_fmt(exc.exit_t)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_emfit(args: argparse.Namespace) -> int:
    from . import likelihood
    shape = Shape(args.r1, args.r2, args.r3)
    if too_large := (_too_many_cells("counts table", shape.r1, shape.r3)
                     or _too_many_cells("joint table", *shape.astuple())):
        raise CliUsageError(too_large)
    counts = load_counts(args.counts, shape=(shape.r1, shape.r3))
    fit = likelihood.em_fit_details(counts, shape, seed=args.seed,
                                    maxiter=args.maxiter, tol=args.tol)
    payload = {
        "model": fit.params,
        "summary": {
            "loglik": fit.loglik,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "seed": args.seed,
            "total_count": counts.total,
        },
    }
    _emit(_render_json(payload) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are one-line :class:`CliUsageError`s
    and which reads a negative number in exponent form (``-1e-05``) or a
    negative ``inf``, ``infinity`` or ``nan`` in any case as a value, not
    as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf(inity)?|nan))$")

    def error(self, message):
        raise CliUsageError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing never mutates it, each call gets a fresh namespace,
    and every default is immutable."""
    parser = _Parser(
        prog="latentgeom",
        description="Geometry of the hidden-middle chain model on (Y1, Y3) data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output", default=None, help="write here, not stdout")
        return p

    p = command("dims", "dimension bookkeeping of a shape")
    p.add_argument("r1", type=int)
    p.add_argument("r2", type=int)
    p.add_argument("r3", type=int)

    p = command("check", "quadric residuals, split and cross-ratios of a "
                         "model or joint file")
    p.add_argument("file")
    p.add_argument("--ref-cell", nargs=2, type=int, default=(1, 1),
                   metavar=("I", "K"), help="1-based reference cell")

    p = command("fig3", "line/hyperbola/intersection plot data of the binary "
                        "fiber cross-section")
    p.add_argument("--z", type=float, required=True,
                   help="marginal cross-ratio d11*d22/(d12*d21)")
    p.add_argument("--c1", type=float, required=True, help="lam(2,1)")
    p.add_argument("--c2", type=float, required=True, help="lam(1,2)")
    p.add_argument("--samples", type=int, default=101)

    p = command("fiber", "sample the unidentifiable fiber of a model")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=10)

    p = command("vertices", "boundary mixings with their degeneracy flags")
    p.add_argument("file")
    p.add_argument("--side", choices=("a", "b"), default="a")

    p = command("consistency", "can this marginal come from an r2-state "
                               "hidden variable?")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("file", help="counts .csv or marginal .json")
    p.add_argument("--r2", type=int, required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--maxiter", type=int, default=500)

    p = command("profile", "log-likelihood trace along a fiber path")
    p.add_argument("counts", help="counts .csv")
    p.add_argument("model", help="model .json")
    p.add_argument("--vertex", type=int, default=0,
                   help="index into the extreme mixings (default 0)")
    p.add_argument("--q", default=None,
                   help="mixing matrix .json instead of a vertex")
    p.add_argument("--side", choices=("a", "b"), default="a")
    p.add_argument("--steps", type=int, default=33)

    p = command("emfit", "EM fit of counts at a shape")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("counts", help="counts .csv")
    p.add_argument("r1", type=int)
    p.add_argument("r2", type=int)
    p.add_argument("r3", type=int)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--maxiter", type=int, default=500)

    return parser


_HANDLERS = {
    "dims": cmd_dims,
    "check": cmd_check,
    "fig3": cmd_fig3,
    "fiber": cmd_fiber,
    "vertices": cmd_vertices,
    "consistency": cmd_consistency,
    "profile": cmd_profile,
    "emfit": cmd_emfit,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(exc, file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:
        # --help
        return int(exc.code or 0)
    try:
        seed = getattr(args, "seed", 0)
        if not 0 <= seed < 2 ** 64:
            raise CliUsageError(
                f"--seed must be an unsigned 64-bit integer, got {seed}")
        return _HANDLERS[args.command](args)
    except (CliUsageError, GeometryError) as exc:
        # bad flag values, and analysis errors the report cannot carry
        print(f"latentgeom {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CliFileError as exc:
        print(f"latentgeom {args.command}: {exc}", file=sys.stderr)
        return FILE_ERROR


def run() -> None:
    sys.exit(main(None))
