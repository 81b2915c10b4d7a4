"""Smoke test of the benchmark harness at tiny sizes (kn <= 6).

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and twice traced through run.py, and
checks the output contract, the metric names and units in BENCHMARK.json,
the layer split, and that traced counts repeat. Also checks that a planted
wrong expected value and an exception each count as failed items.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


def run_tiny(workload, trace, out):
    proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric(workload, tmp_path):
    out = tmp_path / "runs.jsonl"
    results = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        result = run_tiny(workload, trace, out)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        results[trace] = {name: m["value"] for name, m in result["metrics"].items()}

    assert all(results[0][m["name"]] > 0 for m in SPEC["end_to_end"])
    layers = results[1]
    assert layers["rings.Poly.mul.calls"] == 0 or workload == "verify"
    if workload == "gram":
        assert layers["kernels.nu_grouped_products.calls"] == 0
    if workload == "symfun":
        assert layers["kernels.nu_histogram_compose.calls"] == 0
        assert layers["spherical.phi.calls"] == 0

    records = compare.load(out)
    assert [r["failed_ratio"] for r in records] == [0, 0, 0]
    provenance = records[0]["provenance"]
    for key in ("nproc", "python", "git_commit", "kernel_backend", "env"):
        assert key in provenance
    assert set(provenance["env"]) == {"WREATHDET_THREADS", "WREATHDET_PURE"}
    mismatches, groups = compare.count_mismatches(records, SPEC)
    assert mismatches == [] and list(groups.values()) == [2]


def test_planted_wrong_value_and_exception_fail():
    worker.import_library()
    items = workloads.make_round("symfun", 1, 0, root=worker.ROOT, tiny=True)[:3]
    items[1] = dataclasses.replace(
        items[1], check=workloads._equals(lambda: Fraction(-12345, 7)))
    items.append(workloads.Item("raises", lambda: 1 / 0, lambda got: True))
    records = worker.run_items(items)
    failed = [r for r in records if not r["ok"]]
    assert [r["label"] for r in failed] == [items[1].label, "raises"]
    assert "ZeroDivisionError" in failed[1]["error"]
    assert run.outcome(records) == {
        "correct": False, "attempted": 4, "failed": 2, "failed_ratio": 0.5}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    proc = bench(["--workload", "symfun", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_verdicts():
    base = {s: [100.0 + s] for s in range(10)}
    assert compare.verdict(base, {s: [80.0 + s] for s in range(10)}, "lower", 0.2) == "improved"
    assert compare.verdict(base, {s: [130.0 + s] for s in range(10)}, "lower", 0.2) == "worse"
    assert compare.verdict(base, {s: [101.0 + s] for s in range(10)}, "lower", 0.2) == "no worse"
    wide = {s: [50.0 + 20 * s] for s in range(10)}
    assert compare.verdict(wide, wide, "higher", 0.2) == "unresolved"
