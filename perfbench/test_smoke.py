"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload prints every metric ``BENCHMARK.json`` names, with
its unit, that the user-facing names (including ``failed_share``) are in the
report, that a traced run's layer self times plus ``other`` add up to the
traced wall time, and that ``scenes_per_s`` is scaled by the host probe as
``workloads.rate`` documents.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import workloads  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def units_of(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    report, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == units_of("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())

    rate = "sample_scenarios_per_s" if workload.startswith("sample") else "train_scenes_per_s"
    named = report["named"]
    assert set(named) == {rate, "setup_s", "peak_rss_mb", "failed_share"}
    assert all(m["unit"] for m in named.values())
    assert named["failed_share"]["value"] == 0.0
    assert named[rate]["value"] > 0 and report["host_probe_s"]["median"] > 0
    assert report["why"] == next(w["why"] for w in BENCH["workloads"] if w["name"] == workload)
    for key in ("nproc", "python", "numpy", "scipy", "blas", "threads"):
        assert report["env"][key]


def test_rate_scales_each_unit_by_the_host_probe():
    ref = workloads.PROBE_REF_S
    units = [
        workloads.Unit(scenes=10, seconds=2.0, probe_s=2.0 * ref),  # 5/s on a half-speed host
        workloads.Unit(scenes=10, seconds=1.0, probe_s=ref),        # 10/s at reference speed
        workloads.Unit(scenes=10, seconds=4.0, probe_s=4.0 * ref),  # 2.5/s, quarter speed
        workloads.Unit(raised=True),
    ]
    assert workloads.rate(units, 0.0) == pytest.approx(5.0)
    assert workloads.rate(units, 1.0) == pytest.approx(10.0)
    assert workloads.rate(units, 0.5) == pytest.approx(5.0 * 2.0 ** 0.5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_wall(workload):
    _, result = run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == units_of("per_layer")
    layers = [k for k in metrics if k.endswith(".self_ms") and k.count(".") == 1]
    assert len(layers) == 9
    wall = metrics["trace.wall_ms"]["value"]
    total = sum(metrics[k]["value"] for k in layers) + metrics["other_ms"]["value"]
    assert wall > 0
    assert total == pytest.approx(wall, rel=1e-9)
    assert 0 <= metrics["other_ms"]["value"] < 0.05 * wall


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
