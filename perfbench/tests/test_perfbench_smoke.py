"""Tiny-size runs of every workload through run.py, checked against BENCHMARK.json."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

import run

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def invoke(cwd, workload, trace, extra=("--tiny",)):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run(workload, trace):
    proc = invoke(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert report["machine"]["nproc"] >= 1
    assert report["repeat"]["ops"]
    if workload == "mc_interacting":
        # op (c) re-run at one worker must hash like the two-worker timed runs
        assert report["repeat"] == {"workers": 1, "ops": ["mixed_alpha_8"]}
        assert report["machine"]["workers"] == min(2, report["machine"]["nproc"])
    if trace:
        assert report["self_time_accounting"]
        for row in report["self_time_accounting"]:
            assert abs(row["residual_s"]) <= 1e-6 * max(row["wall_s"], 1e-3)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_points_per_path_step_counts_stencil_corners():
    proc = invoke(ROOT, "mc_free", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["potentials.eval.points_per_path_step"]["value"] == 1.0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(tmp_path, "mc_free", 0, extra=())
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tally_fails_changed_hashes_and_crashed_runs():
    def run_of(h, failures=()):
        return {"ops": [{"label": "a", "hash": h, "failures": list(failures)}]}

    failures = []
    runs = [(run_of("x"), 1), (run_of("x"), 1), (run_of("y"), 1),
            (run_of("x", ["gate"]), 1), ({"error": "killed"}, 3)]
    assert run.tally(runs, failures) == (7, 5)
    assert len(failures) == 3
