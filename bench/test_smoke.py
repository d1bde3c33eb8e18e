"""Smoke test of the benchmark itself, every workload at q <= 7.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, reference=None):
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", str(trace),
            "--size", "tiny"]
    with contextlib.redirect_stdout(buf):
        assert run.main(argv, reference=reference) == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_frac = 0 frac") for line in lines)


@pytest.mark.parametrize(
    "workload, field", [("search", "estimate_seed0"), ("exact_d4", "dense_sigma")]
)
def test_gate_flags_a_perturbed_reference(workload, field):
    reference = copy.deepcopy(load_reference())
    call = WORKLOADS[workload]["tiny"][0]
    reference[call.key(call.qs[-1])][field] *= 1 + 1e-6
    lines, result = _run(workload, 0, reference=reference)
    assert not result["correct"] and result["failed"] > 0
    failed_frac = next(line for line in lines if line.startswith("failed_frac = "))
    assert float(failed_frac.split()[2]) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
