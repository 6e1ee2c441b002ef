"""Smoke test of the benchmark: every workload once at its smallest size.

Run with ``python -m pytest bench/test_smoke.py`` from the repository
root (about a minute). The tier-1 suite collects only ``tests/``, so this
stays out of it, and ``--smoke`` stays out of the full benchmark run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
    record = json.loads(done.stdout.strip().splitlines()[-2])["record"]
    assert record["ops_failed_ratio"] == 0
    assert record["environment"]["threads"]["OPENBLAS_NUM_THREADS"] is not None


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, it exits nonzero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run_bench("--workload", "cli-gallery", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
