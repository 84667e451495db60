"""In-memory spans around the benchmark's calls into the library.

A root span covers one operation; a child span covers one call into a
library module and carries the operation's id.  Spans are kept in memory
and written out once, when the run ends.  With tracing off, ``call`` is a
plain function call and no span is recorded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    op_id: int
    name: str
    parent: int | None          # index of the parent span, None for a root
    start: float
    end: float
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0     # time covered by child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans when ``enabled``; otherwise only forwards calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._root: int | None = None
        self._op_id = -1

    def begin_op(self, op_id: int, kind: str, label: str) -> None:
        self._op_id = op_id
        if self.enabled:
            self._root = len(self.spans)
            self.spans.append(Span(op_id, "op", None, perf_counter(), 0.0,
                                   {"kind": kind, "label": label}))

    def end_op(self) -> None:
        if self.enabled and self._root is not None:
            self.spans[self._root].end = perf_counter()
        self._root = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and, when tracing, record a child span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            # calls inside one operation are sequential, so child spans
            # never overlap and their durations add up to the time covered
            self.spans.append(Span(self._op_id, name, self._root, start, end))
            if self._root is not None:
                self.spans[self._root].child_time += end - start

    def layer_spans(self) -> list[Span]:
        return [s for s in self.spans if s.parent is not None]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"op": s.op_id, "name": s.name, "parent": s.parent,
                 "start": s.start, "end": s.end, "self": s.self_time,
                 **s.attrs} for s in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of ``values``.

    A weighted mean of the order statistics, each weighted by the chance
    that the ``p``-quantile of the distribution falls at its rank (a
    Beta((n+1)p, (n+1)(1-p)) law).  Unlike a single order statistic it does
    not jump when the quantile sits between two groups of operations of
    different cost, such as two input sizes.
    """
    import numpy as np      # after the harness has pinned BLAS threads

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    logpdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    cdf = np.cumsum(np.exp(logpdf - logpdf.max()))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf)
    edges[0], edges[-1] = 0.0, 1.0
    return float(np.dot(np.diff(edges), x))


def tail(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  The percentile is
    100 (n - 10) / n, estimated with ``quantile``; with ten samples or
    fewer it is the maximum and the percentile reads 100.
    """
    n = len(values)
    if n <= 10:
        return max(values), 100.0, n
    p = (n - 10) / n
    return quantile(values, p), 100.0 * p, n
