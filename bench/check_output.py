"""Self-test of the benchmark's output.

    python3 -m pytest -q bench/check_output.py

Runs the benchmark command from ``BENCHMARK.json`` on every workload for one
second, untraced and traced, and checks that every metric named there is
printed with its unit, finite and above zero (per-layer metrics of a layer
the workload does not reach read zero), and that the attempted and failed
counts are present.  It also checks that the command fails without printing
a result when the library sources are missing.  The file is named so that
the repository's test run does not collect it: the eight runs take about
four minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics of layers a workload never calls inside an operation.
_BATTERY_ONLY = {
    *(f"verify.check_{f}_s" for f in (
        "algebra", "symbol_oracle", "example_kernel", "sector", "rellich",
        "block", "quadratic", "perturbation", "skew", "norm_equivalences",
        "duality", "dirichlet")),
    "diagnostics.campaign_s", "oracles.cauchy_extension_line_s",
    "calculus.quadratic_constants_s",
}
_FRAME_BUILD = {
    "assembly.assemble_TB_s", "assembly.assemble_NB_s", "assembly.restrict_s",
    "assembly.restrict_calls", "assembly.hat_h1_basis_s",
    "calculus.decompose_s", "calculus.apply_function_s",
    "bvp.BoundaryFrame_s",
}
UNREACHED = {
    "frame-n1": _BATTERY_ONLY | {"bvp.norms_s"},
    "frame-n2": _BATTERY_ONLY | {"bvp.norms_s"},
    # the frame is built in set-up, outside the operations
    "solves-n1": _BATTERY_ONLY | _FRAME_BUILD,
    "battery": set(),
}


def run(args, cwd):
    cmd = [*SPEC["command"], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] < result["attempted"]
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
        if trace and m["name"] in UNREACHED[workload]:
            assert got["value"] >= 0, m["name"]
        else:
            assert got["value"] > 0, m["name"]


def test_fails_without_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
