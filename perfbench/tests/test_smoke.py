"""Tiny-budget runs of every workload through ``perfbench/run.py``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_harness():
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] \
        == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in specs}
    printed = [m["name"] for m in specs] + ([] if trace else ["fit_fail_frac"])
    for name in printed:
        assert any(line.startswith(f"metric {name} ") for line in lines), name
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["seed"] == 3
    assert any(line.startswith("records_digest round 0 ") for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "univ-n4", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    value, percentile = harness.tail(range(100))
    assert value == 89 and percentile == 90.0
    assert harness.tail([3, 1, 2]) == (3, 100.0)
