"""Smoke test of the benchmark harness at tiny corpus sizes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Runs every workload in both modes through bench/run.py and checks the
result line against the metric names BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "0", "--scale", "0.02", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_reports_every_declared_metric(trace, section):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3 * 4
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace == "0":
        # episodes_per_s is left out: at these sizes the processing time,
        # wall_s minus setup_s, is within the noise of setup_s.
        for w in SPEC["workloads"]:
            for name in ("wall_s", "setup_s", "peak_rss_mb"):
                assert result["metrics"][f"{w['name']}.{name}"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
