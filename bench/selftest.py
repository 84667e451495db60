"""Tests of the benchmark itself, on its one-round quick mode.

Run from the repository root with ``python3 -m pytest bench/selftest.py -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from latentgeom import identifiability, model  # noqa: E402


def _quick(name: str, trace: bool) -> run.Result:
    return run.run_workload(name, seed=3, seconds=0.0, trace=trace, quick=True)


def test_quick_mode_runs_every_workload_traced_and_untraced():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                           "--quick", "--seed", "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["attempted"] > 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for name in run.WORKLOAD_NAMES:
        for metric in spec["end_to_end"]:
            printed = summary["metrics"][f"{name}.{metric['name']}"]
            assert printed["unit"] == metric["unit"] and printed["value"] > 0
        for metric in spec["per_layer"]:
            assert summary["metrics"][f"{name}.{metric['name']}"]["unit"] == metric["unit"]
        assert f"tracing overhead {name}:" in proc.stdout
    assert "cli_stdout_sha256 " in proc.stdout


def test_failed_output_check_counts_in_fail_ratio(monkeypatch, capsys):
    real = model.jacobian_rank
    monkeypatch.setattr(model, "jacobian_rank", lambda params: real(params) + 1)
    result = _quick("geometry", trace=False)
    printed = run.report(result)
    assert printed["failed"] == len(result.latencies) == 4
    assert printed["attempted"] == 5          # four chains and one cold start
    assert printed["correct"] is False
    out = capsys.readouterr().out
    assert "fail_ratio = 4/5 = 0.8" in out
    assert out.count("[wrong] in 1 of 1 replays: jacobian_rank") == 4


def test_failure_counts_once_per_replay(monkeypatch):
    real = model.jacobian_rank
    monkeypatch.setattr(model, "jacobian_rank", lambda params: real(params) + 1)
    monkeypatch.setattr(run, "plan", lambda name, seconds, quick: (1, 3))
    result = _quick("geometry", trace=False)
    assert [len(ts) for ts in result.times] == [3] * 4
    assert len(result.failures) == 4 and all(f.replays == 3 for f in result.failures)
    assert result.failed == 12 and result.attempted == 13


def test_uncertified_exact_target_is_wrong_not_a_miss(monkeypatch):
    real = identifiability.consistency_check

    def broken(target, r2, **kwargs):
        report = real(target, r2, **kwargs)
        if r2 >= min(target.shape):
            return identifiability.ConsistencyReport(
                feasible=False, best_divergence=1.0, witness=None,
                necessary_checks=report.necessary_checks,
                proven_infeasible_by=None, tol=report.tol)
        return report

    monkeypatch.setattr(identifiability, "consistency_check", broken)
    result = _quick("consistency", trace=False)
    assert len(result.failures) == 2          # two exact targets per round
    for failure in result.failures:
        assert failure.what.startswith("exact ")
        assert failure.problems[0][0] == "wrong"
    assert not result.correct


def test_raising_operation_counts_as_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(model, "ci_residuals", boom)
    result = _quick("geometry", trace=True)
    assert len(result.failures) == 4
    assert all(f.problems[0][0] == "exception" for f in result.failures)
    assert not result.correct


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_and_untraced_runs_complete_the_same_operations(name):
    plain = _quick(name, trace=False)
    traced = _quick(name, trace=True)
    assert plain.op_log == traced.op_log
    assert [f.problems for f in plain.failures] == [f.problems for f in traced.failures]
    assert plain.counters == traced.counters
    assert plain.digest == traced.digest
    roots = [s for s in traced.tracer.spans if s.parent is None]
    assert [f"{s.attrs['kind']} {s.attrs['label']}" for s in roots] == traced.op_log
    assert not plain.tracer.spans
    for span in traced.tracer.layer_spans():
        assert 0.0 <= span.self_time <= traced.tracer.spans[span.parent].duration


def test_setup_only_prints_one_set_up_time():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "cli",
                           "--seconds", "1", "--setup-only"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["setup_s"] > 0


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "cli", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reported_times_are_wall_times_times_the_host_factor():
    from hostclock import HostClock

    result = _quick("cli", trace=False)
    assert result.clock.samples
    clock = HostClock()
    clock.samples = [1.0] + [2e-3] * 18 + [1e-6]       # one stall, one outlier
    assert clock.mean() == pytest.approx(2e-3)
    assert clock.factor() == pytest.approx(0.5)         # reference 1 ms / 2 ms
    result.clock = clock
    raw, calibrated = result.raw_end_to_end(), result.end_to_end()
    assert calibrated["op_p50_ms"] == pytest.approx(raw["op_p50_ms"] / 2)
    assert calibrated["cold_start_ms"] == pytest.approx(
        raw["cold_start_ms"] * run.REFERENCE_START_S / result.reference_starts[0])
    assert calibrated["ops_per_s"] == pytest.approx(raw["ops_per_s"] * 2)
    assert calibrated["peak_rss_mb"] == raw["peak_rss_mb"]
