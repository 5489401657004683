"""Smoke tests of the benchmark itself, at tiny input sizes.

Every workload must emit exactly the metrics BENCHMARK.json names, each
with its unit, in both the untraced and the traced run; a reference
mismatch must fail the run; and without the program's sources the
benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(root, *args):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def smoke(root, workload, trace=0):
    return bench(root, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def copy_bench(dest, with_program=True):
    """A checkout holding only what git would commit of the benchmark."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    os.makedirs(os.path.join(dest, "perfbench"))
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(HERE, name), os.path.join(dest, "perfbench"))
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src", "greedyorder"),
                        os.path.join(dest, "src", "greedyorder"),
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = smoke(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_certify_large_counts_the_recursion_failure():
    proc = smoke(ROOT, "certify_large")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = last_json(proc.stdout)
    assert result["failed"] * 8 == result["attempted"]
    assert "RecursionError" in proc.stdout


def test_reference_mismatch_fails_the_run(tmp_path):
    copy_bench(str(tmp_path))
    path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    for ref in refs["smoke"]["attack_exact"].values():
        ref["size"] += 1
    path.write_text(json.dumps(refs))
    proc = smoke(str(tmp_path), "attack_exact")
    assert proc.returncode == 1
    assert last_json(proc.stdout)["correct"] is False


def test_fails_without_the_program(tmp_path):
    copy_bench(str(tmp_path), with_program=False)
    proc = smoke(str(tmp_path), "safety_census")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
