"""Host speed reference: fixed kernels that call nothing in the library.

On a shared host the same code runs at different speeds from one minute
to the next, as other tenants load the machine; a whole run of 20-30 s
can take up to twice as long as the run before.  The harness runs a
reference kernel between operations, at most once every ``INTERVAL_S``,
and multiplies every time it reports by the kernel's reference time
divided by its trimmed mean time in the run.  Reported times are
therefore those of a host on which the kernel takes its reference time on
average: a change to the library moves them, a change in the host's speed
mostly does not.  The raw wall times and the factor are printed beside
them.

The host switches between a fast and a slow state (about 1.9 times slower
for the ``python`` kernel) every 10 to 100 ms, and the share of time it
spends slow changes from one run to the next.  An operation that lasts
longer than a few of these phases takes time in proportion to that share,
and so does the mean of many short kernel samples; the harness therefore
averages each operation's replays and the kernel samples alike, both
linear in the share, rather than taking medians or minima, which jump
between the two states.  The top and bottom ``TRIM`` of the kernel
samples are dropped, so that a rare preemption of the process does not
move the factor.

Python-level code and dense linear algebra slow by different amounts when
the host does, so a workload picks the kernels that do its kind of work.
The kernels run with the garbage collector off, so that a library change
that leaves a large heap behind slows the operations but not the
reference.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

import numpy as np

#: least time between two kernel samples
INTERVAL_S = 0.04
#: share of kernel samples dropped at each end before averaging
TRIM = 0.05

_RECORD = {f"key{i}": [i, i / 7.0, f"value-{i}"] for i in range(60)}
_TARGET = np.arange(1.0, 10.0).reshape(3, 3) / 45.0
_SQUARE = np.sin(np.arange(1.0, 901.0)).reshape(30, 30)
_TALL = np.sin(np.arange(1.0, 20001.0)).reshape(200, 100)
_EM_STEPS = 25


def _python_work() -> float:
    """Dict, string and JSON handling, an EM loop on 3x2x3 arrays and a
    small SVD: the work of the CLI and of the EM searches."""
    text = json.dumps(_RECORD)
    rows = ",".join(format(v[1], ".17g") for v in json.loads(text).values())
    p1 = np.full(3, 1.0 / 3.0)
    a = np.array([[0.6, 0.4], [0.5, 0.5], [0.3, 0.7]])
    b = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    for _ in range(_EM_STEPS):
        theta = p1[:, None, None] * a[:, :, None] * b[None, :, :]
        n = _TARGET[:, None, :] * theta / theta.sum(axis=1, keepdims=True)
        p1 = n.sum(axis=(1, 2))
        a = n.sum(axis=2) / p1[:, None]
        b = n.sum(axis=0) / n.sum(axis=(0, 2))[:, None]
    sv = np.linalg.svd(_SQUARE, compute_uv=False)
    return len(rows) + float(b.sum()) + float(sv[0])


def _dense_work() -> float:
    """A dense SVD, like the Jacobian ranks of the larger chains."""
    return float(np.linalg.svd(_TALL, compute_uv=False)[0])


#: reference kernels, each with the mean time, on a 2-vCPU x86-64 VM, that
#: the calibrated times are given for (the VM's mean for ``python`` ranged
#: from 0.65 to 1.25 ms between runs; ``dense`` took about 1.15 times as
#: long, a ratio that grew when the host slowed)
KERNELS = {"python": (_python_work, 1.0e-3), "dense": (_dense_work, 1.15e-3)}


def time_kernel(parts: tuple[str, ...] = ("python",)) -> float:
    """Wall time of one pass of the named kernels, run back to back."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for name in parts:
            KERNELS[name][0]()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Samples of the ``parts`` kernels, taken between operations and
    spread over the run."""

    def __init__(self, parts: tuple[str, ...] = ("python",)) -> None:
        self.parts = parts
        self.samples: list[float] = []
        self._last = -float("inf")

    @property
    def reference_s(self) -> float:
        return sum(KERNELS[name][1] for name in self.parts)

    def tick(self) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(time_kernel(self.parts))
            self._last = perf_counter()

    def mean(self) -> float:
        """Trimmed mean kernel time of the run."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / len(kept)

    def factor(self) -> float:
        """Multiplier from this run's wall times to reference-host times."""
        return self.reference_s / self.mean() if self.samples else 1.0
