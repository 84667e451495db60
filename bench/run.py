"""Benchmark of latentgeom: the geometry, consistency and cli workloads.

Run from anywhere; paths are resolved from this file's location:

    python3 bench/run.py --workload geometry --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10
    python3 bench/run.py --workload cli --quick

Each workload draws a pool of distinct rounds of operations from the seed
and replays the whole pool a fixed number of times in a closed loop: one
client in one process, the next call sent only after the previous one
returned.  The pool is sized from ``--seconds`` so that the replays take
about that long on a 2-vCPU x86-64 VM; the amount of work is therefore
fixed by the workload and ``--seconds``, not by how fast a run happens to
go.  An operation's latency is the mean of its replays (see ``hostclock``
for why a mean).

Every time reported is in reference-host time: the wall time multiplied by
the run's host factor, which ``hostclock`` measures with a fixed kernel run
between operations, so that a run that happens to meet a busy shared host
reads about the same as one that does not; cold starts of the CLI are
scaled instead by a start of the same interpreter that imports the same
third-party modules (``REFERENCE_START_ARGV``).  The wall-time figures and
the factors are printed beside them.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it records a span around every call into a library module and prints the
per-layer metrics instead.  ``--workload all`` runs every workload untraced
and traced in child processes and reports the tracing overhead.
``--quick`` replays one round once, with a single set-up and cold start.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Only the package source under ``src/`` next to this directory is imported;
without it the run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from tracing import Tracer, quantile, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

#: the environment as the process received it, before BLAS threads are
#: pinned; cold starts run in it, as a user's ``python -m latentgeom`` would
BASE_ENV = dict(os.environ)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: cold set-ups per run: this process's own and the rest in fresh child
#: processes, so that each pays the first BLAS/SVD call and lazy imports
SETUP_REPS = 3
WARMUP_SEED = 0
COLD_STARTS = 12
COLD_ARGV = ("dims", "3", "2", "3")
#: a start of the same interpreter that imports what the CLI imports before
#: the package, run after each cold start.  Starts are placed on either CPU
#: and slow with the host unlike the kernels of ``hostclock`` (the same
#: cold start read 200 or 260 ms for minutes at a time), so cold starts are
#: scaled by REFERENCE_START_S / the run's median reference start instead.
REFERENCE_START_ARGV = ("-c", "import argparse, json, numpy")
REFERENCE_START_S = 0.18
WORKLOAD_NAMES = ("geometry", "consistency", "cli")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("cold_start_ms", "ms"))
LAYER_FUNCTIONS = (
    "model.joint_from_chain", "model.ci_residuals", "model.jacobian_rank",
    "model.dims", "reparam.split", "reparam.cross_ratios",
    "reparam.solve_fiber_323", "fiber.apply_mixing", "fiber.sample_fiber",
    "fiber.extreme_mixings", "fiber.fiber_dimension",
    "identifiability.consistency_check", "likelihood.em_fit_details",
    "likelihood.loglik", "likelihood.profile_along_fiber", "cli.main",
)
#: layers whose busy time is also split by the kind of the calling operation
SPLIT_BY_KIND = ("identifiability.consistency_check", "cli.main")

#: the stale single-run table of ROADMAP open item 1, as (layer, operation
#: kind, input label, seconds, note); printed beside the traced medians
ROADMAP_BASELINES = (
    ("model.jacobian_rank", "chain", "3x2x3", 0.39e-3, ""),
    ("model.jacobian_rank", "chain", "30x5x30", 1.3, ""),
    ("model.ci_residuals", "chain", "3x2x3", 12e-6, ""),
    ("model.ci_residuals", "chain", "30x5x30", 4.3e-3, ""),
    ("reparam.split", "chain", "3x2x3", 58e-6, ""),
    ("reparam.cross_ratios", "chain", "3x2x3", 43e-6, ""),
    ("fiber.sample_fiber", "chain", "3x2x3", 3.6e-3, "n=10"),
    ("likelihood.em_fit_details", "fit", "3x2x3", 28e-3,
     "roadmap: uniform counts; here multinomial counts"),
    ("identifiability.consistency_check", "search_hit", "3x2x3", 36e-3,
     "exact rank-2 3x3 targets, r2=2"),
)


@dataclass
class Failure:
    op: str
    what: str
    problems: list[tuple[str, str]]
    replays: int = 1        # replays of the operation that failed this way


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    setup_times: list[float]
    pool: int
    replays: int
    times: list[list[float]]        # per distinct operation, one per replay
    op_log: list[str]               # per distinct operation
    elapsed: float
    failures: list[Failure]
    counters: Counter
    tracer: Tracer
    cold_starts: list[float]
    reference_starts: list[float]
    peak_rss_mb: float
    digest: tuple[str, int] | None
    clock: object           # a hostclock.HostClock, imported once BLAS is pinned

    @property
    def factor(self) -> float:
        """Multiplier from this run's wall times to reference-host times."""
        return self.clock.factor()

    @property
    def rounds(self) -> int:
        return self.pool * self.replays

    @property
    def attempted(self) -> int:
        return sum(map(len, self.times)) + len(self.cold_starts)

    @property
    def failed(self) -> int:
        return sum(f.replays for f in self.failures)

    @property
    def correct(self) -> bool:
        return all(sev == "miss" for f in self.failures for sev, _ in f.problems)

    @property
    def latencies(self) -> list[float]:
        """Each distinct operation's mean replay, in wall seconds."""
        return [sum(ts) / len(ts) for ts in self.times]

    @property
    def raw_ops_per_s(self) -> float:
        """Distinct operations per wall second when each costs the median
        latency of its class (kind and input size).  Class medians keep the
        rare searches that run for seconds from setting the figure; those
        show in ``op_tail_ms`` and in the per-layer busy times."""
        classes: dict[str, list[float]] = defaultdict(list)
        for what, latency in zip(self.op_log, self.latencies):
            classes[what].append(latency)
        return len(self.op_log) / sum(len(v) * median(v) for v in classes.values())

    @property
    def ops_per_s(self) -> float:
        """``raw_ops_per_s`` in reference-host time."""
        return self.raw_ops_per_s / self.factor

    def raw_end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics in this run's wall time."""
        lat = self.latencies
        return {
            "setup_s": median(self.setup_times),
            "ops_per_s": self.raw_ops_per_s,
            "op_p50_ms": quantile(lat, 0.5) * 1e3,
            "op_tail_ms": tail(lat)[0] * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
            "cold_start_ms": quantile(self.cold_starts, 0.5) * 1e3,
        }

    @property
    def start_factor(self) -> float:
        """Multiplier from this run's cold starts to reference-host ones."""
        return REFERENCE_START_S / median(self.reference_starts)

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics in reference-host time."""
        raw = self.raw_end_to_end()
        scaled = {name: value * self.factor for name, value in raw.items()}
        scaled["ops_per_s"] = raw["ops_per_s"] / self.factor
        scaled["peak_rss_mb"] = raw["peak_rss_mb"]
        scaled["cold_start_ms"] = raw["cold_start_ms"] * self.start_factor
        return scaled

    def per_layer(self) -> dict[str, tuple[float, str]]:
        from workloads import CONSISTENCY_CLASSES, Cli

        rounds = self.rounds
        calls: Counter = Counter()
        busy: dict[str, float] = defaultdict(float)
        for span in self.tracer.layer_spans():
            self_time = span.self_time * self.factor
            calls[span.name] += 1
            busy[span.name] += self_time
            if span.name in SPLIT_BY_KIND:
                kind = self.tracer.spans[span.parent].attrs["kind"]
                busy[f"{span.name}.{kind}"] += self_time
        out = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = (calls[name] / rounds, "1/round")
            out[f"{name}.busy_s"] = (busy[name] / rounds, "s/round")
        for kind in CONSISTENCY_CLASSES:
            key = f"identifiability.consistency_check.{kind}"
            out[f"{key}.busy_s"] = (busy[key] / rounds, "s/round")
        for sub in Cli.SUBCOMMANDS:
            out[f"cli.main.{sub}.busy_s"] = (busy[f"cli.main.{sub}"] / rounds, "s/round")
        c = self.counters
        out["likelihood.em_fit_details.iterations"] = (
            c["em_iterations"] / max(1, c["em_calls"]), "1/call")
        out["likelihood.em_fit_details.converged_ratio"] = (
            c["em_converged"] / max(1, c["em_calls"]), "ratio")
        out["identifiability.consistency_check.certified_ratio"] = (
            c["certified"] / max(1, c["feasible_targets"]), "ratio")
        out["fiber.sample_fiber.stalls"] = (
            c["fiber.sample_fiber.stalls"] / rounds, "1/round")
        out["trace.ops_per_s"] = (self.ops_per_s, "1/s")
        return out


# ---------------------------------------------------------------------------
# running one workload

def _execute(op, op_id: int, tracer: Tracer, counters: Counter):
    """Time ``op.run``, then check its output outside the timed region."""
    tracer.begin_op(op_id, op.kind, op.label)
    start = perf_counter()
    try:
        out = op.run(tracer)
    except Exception as exc:  # a raising operation is a failed one; keep going
        elapsed = perf_counter() - start
        tracer.end_op()
        return elapsed, [("exception", _describe(exc))]
    elapsed = perf_counter() - start
    tracer.end_op()
    try:
        problems = op.check(out, counters)
    except Exception as exc:  # unparsable output fails its check
        problems = [("wrong", "output check raised " + _describe(exc))]
    return elapsed, problems


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(frame.filename).name}:{frame.lineno})"


def _capture_cli(argv) -> str:
    from latentgeom import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
    return out.getvalue()


def _start(argv) -> tuple[float, subprocess.CompletedProcess | None]:
    """Run ``python argv`` and time it from spawn to exit (None on timeout)."""
    env = dict(BASE_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), BASE_ENV.get("PYTHONPATH")) if p)
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=60)
    except subprocess.TimeoutExpired:
        proc = None
    return perf_counter() - start, proc


def _cold_start(expected: str) -> tuple[float, list[tuple[str, str]]]:
    """One ``python -m latentgeom dims 3 2 3``, timed from spawn to exit."""
    elapsed, proc = _start(("-m", "latentgeom", *COLD_ARGV))
    if proc is None:
        return elapsed, [("exception", "cold start timed out after 60 s")]
    if proc.returncode != 0 or proc.stdout != expected:
        return elapsed, [("wrong", f"exit {proc.returncode}, stdout differs from in-process dims")]
    return elapsed, []


def plan(name: str, seconds: float, quick: bool) -> tuple[int, int]:
    """Distinct rounds in the pool and replays of the whole pool."""
    from workloads import WORKLOADS

    if quick:
        return 1, 1
    cls = WORKLOADS[name]
    return max(1, round(seconds / (cls.replays * cls.round_s))), cls.replays


def set_up(name: str, seed: int, pool: int, workdir: Path):
    """Draw the workload's inputs and write its files, then warm up: first
    BLAS and SVD calls, lazy imports, first parses."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir / "run", pool=pool)
    # warm-up inputs come from a fixed seed, so it costs the same whatever
    # the run's seed
    warm = WORKLOADS[name](WARMUP_SEED, workdir / "warm-up", pool=1)
    for op in warm.round(0):
        _execute(op, -1, Tracer(False), Counter())
    from hostclock import time_kernel

    time_kernel(WORKLOADS[name].reference)
    return workload


def _child_set_up(name: str, seed: int, seconds: float) -> float:
    """Set-up time of a fresh process: import, inputs, files and warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, import_s: float = 0.0) -> Result:
    """Set up ``name``, then replay its whole pool of rounds a fixed number
    of times (once when ``quick``), with cold starts spread evenly between
    rounds.  ``import_s`` is added to this process's own set-up time."""
    pool, replays = plan(name, seconds, quick)
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        start = perf_counter()
        workload = set_up(name, seed, pool, workdir)
        setup_times = [import_s + perf_counter() - start]
        for _ in range(0 if quick else SETUP_REPS - 1):
            setup_times.append(_child_set_up(name, seed, seconds))
        expected_cold = _capture_cli(COLD_ARGV)

        from hostclock import HostClock
        from workloads import WORKLOADS

        tracer = Tracer(trace)
        clock = HostClock(WORKLOADS[name].reference)
        counters: Counter = Counter()
        failures: dict[tuple, Failure] = {}
        times: list[list[float]] = []
        op_log: list[str] = []
        cold: list[float] = []
        reference_starts: list[float] = []
        n_cold = 1 if quick else COLD_STARTS
        executed = done_rounds = 0
        start = perf_counter()
        for _ in range(replays):
            j = 0       # index of the distinct operation
            for r in range(pool):
                for op in workload.round(r):
                    elapsed, problems = _execute(op, executed, tracer, counters)
                    clock.tick()
                    executed += 1
                    if j == len(times):
                        times.append([])
                        op_log.append(f"{op.kind} {op.label}")
                    times[j].append(elapsed)
                    if problems:
                        key = (j, repr(problems))
                        if key in failures:
                            failures[key].replays += 1
                        else:
                            failures[key] = Failure(str(j), op_log[j], problems)
                    j += 1
                done_rounds += 1
                # cold starts sit between rounds, spread evenly over the
                # run, so that they sample the same machine conditions as
                # the operations
                while len(cold) < n_cold * done_rounds // (pool * replays):
                    elapsed, problems = _cold_start(expected_cold)
                    reference_starts.append(_start(REFERENCE_START_ARGV)[0])
                    clock.tick()
                    cold.append(elapsed)
                    if problems:
                        failures[(f"cold-{len(cold) - 1}",)] = Failure(
                            f"cold-{len(cold) - 1}", "cold_start " + " ".join(COLD_ARGV),
                            problems)
        elapsed = perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Result(
            workload=name, seed=seed, traced=trace, setup_times=setup_times,
            pool=pool, replays=replays, times=times, op_log=op_log,
            elapsed=elapsed, failures=list(failures.values()),
            counters=counters, tracer=tracer, cold_starts=cold,
            reference_starts=reference_starts,
            peak_rss_mb=peak_rss_mb,
            digest=getattr(workload, "stdout_digest", lambda: None)(), clock=clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# environment record

def _pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return str(fn())
    except OSError:
        pass
    return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "latentgeom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={_blas_threads()} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} seed={seed} "
            f"commit={_commit()} src_sha256={_src_digest()}")


# ---------------------------------------------------------------------------
# reporting

def _roadmap_lines(result: Result) -> list[str]:
    durations: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    for span in result.tracer.layer_spans():
        root = result.tracer.spans[span.parent].attrs
        durations[(span.name, root["kind"], root["label"])].append(span.duration)
    lines = []
    for layer, kind, label, seconds, note in ROADMAP_BASELINES:
        found = durations.get((layer, kind, label))
        if found:
            lines.append(f"roadmap {layer} {label}: roadmap {seconds * 1e3:.4g} ms, "
                         f"measured median {median(found) * 1e3:.4g} ms "
                         f"(n={len(found)}) {note}".rstrip())
    cold = median(result.cold_starts) * 1e3
    lines.append(f"roadmap latentgeom dims cold start: roadmap 320 ms, "
                 f"measured median {cold:.4g} ms (n={len(result.cold_starts)})")
    lines.append("roadmap lines: measured figures are wall times on this host, "
                 "not reference-host times")
    return lines


def report(result: Result) -> dict:
    n_ops = len(result.times)
    print(f"workload {result.workload} seed {result.seed}: {n_ops} distinct ops in "
          f"{result.pool} rounds, each replayed {result.replays} times in "
          f"{result.elapsed:.3f} s, trace {'on' if result.traced else 'off'}")
    e2e = result.end_to_end()
    raw = result.raw_end_to_end()
    _, pct, count = tail(result.latencies)
    notes = {
        "setup_s": f"median of {len(result.setup_times)} cold set-ups "
                   "(import, inputs, files, warm-up), wall s: "
                   + ", ".join(f"{t:.4f}" for t in result.setup_times),
        "ops_per_s": "distinct operations / sum over classes of count x median "
                     f"latency; wall mean rate {n_ops / sum(result.latencies):.6g} 1/s",
        "op_p50_ms": "median of the operations' latencies (Harrell-Davis); "
                     f"wall middle order statistic {median(result.latencies) * 1e3:.6g} ms",
        "op_tail_ms": f"p{pct:.2f} (Harrell-Davis) of {count} latencies, "
                      f"{10 if count > 10 else 0} beyond it",
        "cold_start_ms": f"median (Harrell-Davis) of {len(result.cold_starts)} sequential "
                         f"starts of python -m latentgeom {' '.join(COLD_ARGV)}, scaled by "
                         f"{REFERENCE_START_S * 1e3:.4g} ms / median reference start "
                         f"{median(result.reference_starts) * 1e3:.4g} ms",
    }
    kernel = result.clock.samples
    print(f"  host factor = {result.factor:.6g} (reference kernel "
          f"{'+'.join(result.clock.parts)} {result.clock.reference_s * 1e3:.4g} ms / "
          f"run trimmed mean {result.clock.mean() * 1e3:.4g} ms "
          f"over {len(kernel)} samples, median {median(kernel) * 1e3:.4g} ms)")
    for name, unit in END_TO_END:
        wall = "" if name == "peak_rss_mb" else f" (wall {raw[name]:.6g})"
        print(f"  {name} = {e2e[name]:.6g} {unit}{wall}  {notes.get(name, '')}".rstrip())
    failed = result.failed
    print(f"  fail_ratio = {failed}/{result.attempted} = {failed / result.attempted:.6g}")
    for f in result.failures:
        for severity, message in f.problems:
            print(f"FAIL op {f.op} {f.what} [{severity}] in {f.replays} of "
                  f"{result.replays} replays: {message}")
    if result.digest is not None:
        digest, sets = result.digest
        print(f"cli_stdout_sha256 {digest} (first replay of {sets} input sets)")
    if result.traced:
        layers = result.per_layer()
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value:.6g} {unit}")
        for line in _roadmap_lines(result):
            print(line)
        path = WORK / f"trace-{result.workload}-seed{result.seed}.json"
        result.tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own child process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        ops = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--quick"] if args.quick else [])
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] &= last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            for key, metric in last["metrics"].items():
                summary["metrics"][f"{name}.{key}"] = metric
            ops[trace] = last["metrics"]["trace.ops_per_s" if trace else "ops_per_s"]["value"]
        overhead = ops[0] - ops[1]
        print(f"tracing overhead {name}: ops_per_s {ops[0]:.6g} untraced, "
              f"{ops[1]:.6g} traced, difference {overhead:.6g} 1/s "
              f"({overhead / ops[0]:.2%})")
    print(json.dumps(summary))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round, one set-up, one cold start")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it; used by the "
                             "benchmark for its set-up repetitions")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "latentgeom" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'latentgeom'}", file=sys.stderr)
        return 2
    _pin_blas_threads()     # before numpy is first imported, below
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import latentgeom
    import workloads  # noqa: F401  (numpy, the package and the checks)
    import_s = perf_counter() - start
    if not Path(latentgeom.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported latentgeom from {latentgeom.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        pool, _ = plan(args.workload, args.seconds, quick=False)
        workdir = WORK / f"{args.workload}-{os.getpid()}"
        try:
            set_up(args.workload, args.seed, pool, workdir)
            setup_s = perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print("env " + environment(args.seed))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          quick=args.quick, import_s=import_s)
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
