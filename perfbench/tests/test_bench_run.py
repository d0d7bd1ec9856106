"""The benchmark reports every metric BENCHMARK.json names, traced and untraced."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _small(name):
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, spec=workload.check_spec)


def _result(capsys, workload, trace):
    status = run.run_workload(workload, seed=run.checks.CHECK_SEED, seconds=0, trace=trace)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"] and result["failed"] == 0
    return result


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_end_to_end_metrics(capsys, monkeypatch, name):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    result = _result(capsys, _small(name), trace=False)
    assert result["attempted"] >= run.MIN_REPS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(capsys, monkeypatch, name):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    metrics = _result(capsys, _small(name), trace=True)["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in metrics.items()} == expected
    value = {k: m["value"] for k, m in metrics.items()}
    ingest = name.startswith("ingest")
    for layer in ("dataset.load_dataset.s", "features.extract_feature_matrix.s", "features.sbp.s"):
        assert (value[layer] > 0) == ingest, layer
    assert (value["features.export.read_feature_csv.s"] > 0) == (not ingest)
    assert (value["pnn.select_sigma.calls"] > 0) == (name == "eval_auto")
    assert (value["selection.criterion.calls"] > 0) == (name == "select_sfs")
    if name == "eval_auto":
        assert value["pnn.select_sigma.predicts_per_split"] == 8.0
    if name == "select_sfs":
        assert value["selection.steps"] == 2 and value["selection.trace_diff_steps"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval_auto", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
