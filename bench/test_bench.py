"""Tests of the sweep benchmark at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from passes import Checks, accounting, check_order, check_rows, point_config  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Shape  # noqa: E402

import bstoa  # noqa: E402
from bstoa import SweepRow  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, units", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_metric_of_every_workload(trace, units):
    done = run_bench(
        ROOT, "--workload", "all", "--seed", "5", "--seconds", "0.1",
        "--trace", str(trace), "--max-trials", "16",
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == {f"{w}.{k}" for w in WORKLOADS for k in units}
    for key, metric in last["metrics"].items():
        assert metric["unit"] == units[key.split(".", 1)[1]], key
        assert math.isfinite(metric["value"]), key
    assert "error_rate:" in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "mse-small", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def rows(metric, values, theory):
    return [
        SweepRow(1e-9, 2, method, metric, value, theory, 0)
        for method, value in zip(("ls", "proposed"), values)
    ]


def test_checks_flag_rows_off_theory():
    shape = Shape("mse", "bistatic", 4, 3)
    checks = Checks()
    check_rows(rows("mse", (1.05e-18, 0.95e-18), 1e-18), shape, 512, checks, "t")
    assert (checks.attempted, checks.failed) == (2, 0)
    check_rows(rows("mse", (2e-18, 1e-18), 1e-18), shape, 512, checks, "t")
    assert checks.failed == 1
    check_rows(rows("cov_frob_rel_err", (1.0,), 0.0), shape, 512, checks, "t")
    assert checks.failed == 2


def test_rmse_order_is_checked_on_pooled_sums():
    shape = Shape("localization", "bistatic", 4, 3)
    checks, pooled = Checks(), {}
    check_rows(rows("rmse", (1.0, 1.5), None), shape, 100, checks, "t", pooled)
    check_rows(rows("rmse", (2.0, 0.1), None), shape, 100, checks, "t", pooled)
    assert check_order(pooled, checks) == (1, 2)
    assert checks.failed == 0
    check_rows(rows("rmse", (1.0, 1.5), None), shape, 1000, checks, "t", pooled)
    check_order(pooled, checks)
    assert checks.failed == 1


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def traced_sweep(tracer: Tracer, untraced_s: float) -> float:
    """Wall time of a small sweep plus ``untraced_s`` of work outside every
    span, measured under ``tracer``."""
    cfg = point_config(Shape("mse", "bistatic", 4, 3), 1e-9, 2, 64, 3)
    with tracer:
        begin = time.perf_counter()
        bstoa.run_sweep(cfg, workers=1)
        time.sleep(untraced_s)
        return time.perf_counter() - begin


def test_accounting_rejects_work_outside_every_span():
    tracer = Tracer()
    assert accounting(tracer, traced_sweep(tracer, 0.0))["ok"]
    tracer = Tracer()
    report = accounting(tracer, traced_sweep(tracer, 0.05))
    assert not report["ok"]
    assert report["gap"] > report["tolerance"]


def test_accounting_rejects_a_binding_the_tracer_cannot_reach(monkeypatch):
    monkeypatch.setattr(bstoa.harness, "_HIDDEN", (bstoa.harness.run_sweep,), raising=False)
    tracer = Tracer()
    report = accounting(tracer, traced_sweep(tracer, 0.0))
    assert report["stale_bindings"] == ["bstoa.harness._HIDDEN"]
    assert not report["ok"]
