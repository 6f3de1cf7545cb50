"""Self-tests of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench/test_selftest.py

from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace=0, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_agree():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    assert NAMES == list(bench.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_untraced_prints_every_end_to_end_metric(workload):
    out = result(smoke(workload))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_traced_prints_every_per_layer_metric(workload):
    out = result(smoke(workload, 1))
    assert out["correct"]
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    value = {k: v["value"] for k, v in out["metrics"].items()}
    if workload == "scalar-scan":
        assert value["expansion.multiply_calls"] == 0
        assert value["congruence.irregular_yield"] > 0
    else:
        assert value["expansion.multiply_calls"] > 0
    if workload == "cli-pipeline":
        assert value["expansion.parse_s"] > 0
        assert value["cli.cache_hits"] == value["cli.cache_misses"] == 8
    else:
        assert value["expansion.parse_s"] == 0
    if workload == "siegel-congruence":
        assert value["elliptic.delta_builds"] == 12  # one per tau(n), n <= 12
    assert value["trace.overhead_ratio"] > 0


def test_corrupted_golden_counts_as_failure(tmp_path):
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)
    ops = goldens["siegel-congruence"]["smoke"]["ops"]
    ops["X10"] = "0" * 64
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(goldens))
    proc = smoke("siegel-congruence", 0, "--goldens", str(path))
    out = result(proc)
    assert not out["correct"] and out["failed"] > 0
    assert "FAILED X10: output differs from golden" in proc.stdout


def test_injected_exception_counts_as_failure_and_pass_continues():
    proc = smoke("hermitian-congruence", 0, "--inject", "G10[-4]")
    out = result(proc)
    assert not out["correct"]
    # the call itself, the solve that needs it and its published checks fail;
    # everything else in the pass still runs and passes
    assert 0 < out["failed"] < out["attempted"]
    assert "FAILED G10[-4]: InjectedFault" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("scalar-scan", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
