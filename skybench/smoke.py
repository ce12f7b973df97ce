"""Tiny-size smoke test of the benchmark command.

    python3 -m pytest skybench/smoke.py -q

Runs every workload at ``--scale tiny`` untraced and traced, and checks
that the result line carries exactly the metrics ``BENCHMARK.json``
names and that every check passed.  Also checks that the command fails
without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def _run(cwd: str, workload: str, trace: int) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [
            sys.executable, os.path.join(cwd, "skybench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def _result(done: "subprocess.CompletedProcess[str]") -> Dict[str, Any]:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload: str) -> None:
    metrics = _result(_run(ROOT, workload, 0))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    for name, metric in metrics.items():
        assert metric["value"] >= 0, name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload: str) -> None:
    metrics = _result(_run(ROOT, workload, 1))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["engine.self_ms_per_op"]["value"] > 0


def test_fails_without_the_program(tmp_path: Any) -> None:
    shutil.copytree(HERE, tmp_path / "skybench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(str(tmp_path), "read-static", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
