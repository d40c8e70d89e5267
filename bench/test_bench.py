"""Tests of the benchmark itself, on the tiny workload sizes.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seed", "0", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    assert "no recorded outputs" not in proc.stderr  # seed 0 is compared with its record
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    lines = proc.stdout.splitlines()
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
                   for line in lines), metric["name"]
    assert any(line.startswith("error_rate ") for line in lines)
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_record_counts_the_run_as_failed(workload, tmp_path):
    table = json.loads((BENCH / "expected.json").read_text())
    record = table[f"tiny/{workload}/0"]["call"]
    if "fitness" in record:
        record["fitness"] += 0.5
    else:
        next(iter(record.values()))[0] += 1  # one sweep case's true positives
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(table))

    result = result_of(bench("--workload", workload, "--trace", "0", "--expected", str(corrupted)))
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
