"""Every output check passes on real output and fails on a perturbed copy."""

import csv
import json
import shutil

import pytest

import checks
import run


@pytest.fixture(scope="module")
def outputs():
    """Check-input outputs of every workload, produced by the package."""
    found = {}
    for name, workload in run.WORKLOADS.items():
        out, failed = run.check_run(workload)
        assert not failed
        found[name] = out
    return found


def _copy(src, tmp_path):
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return dst


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_identical_repeats(outputs, tmp_path):
    out = _copy(outputs["eval_auto"], tmp_path)
    same = checks.digests(out)
    assert checks.identical_repeats([same, checks.digests(outputs["eval_auto"])]) == []
    (out / "confusion.csv").write_text((out / "confusion.csv").read_text() + "\n")
    assert checks.identical_repeats([same, checks.digests(out)])


def test_registry(outputs, tmp_path):
    out = _copy(outputs["ingest_full"], tmp_path)
    assert checks.registry_matches(out) == []
    _rewrite_csv(out / "registry.csv", lambda rows: rows[5].__setitem__(3, "renamed"))
    assert checks.registry_matches(out)


@pytest.mark.parametrize("workload", ["ingest_full", "ingest_windowed"])
def test_feature_shape_and_frozen_rows(outputs, tmp_path, workload):
    frozen = checks.load_frozen(workload)
    out = _copy(outputs[workload], tmp_path)
    assert checks.feature_shape(out, frozen["patterns"], frozen["header"]) == []
    assert checks.feature_rows_match(out, frozen) == []

    def nudge(rel):
        def edit(rows):
            row = rows[1 + checks.SAMPLE_ROWS[1]]
            row[40] = repr(float(row[40]) * (1 + rel))
        return edit

    _rewrite_csv(out / "features.csv", nudge(1e-14))
    assert checks.feature_rows_match(out, frozen) == []
    _rewrite_csv(out / "features.csv", nudge(1e-8))
    assert checks.feature_rows_match(out, frozen)
    _rewrite_csv(out / "features.csv", lambda rows: rows.pop())
    assert checks.feature_shape(out, frozen["patterns"], frozen["header"])


def test_eval(outputs, tmp_path):
    frozen = checks.load_frozen("eval_auto")
    out = _copy(outputs["eval_auto"], tmp_path)
    assert checks.eval_matches(out, frozen) == []
    report = json.loads((out / "report.json").read_text())
    report["confusion"][0][0] += 1
    (out / "report.json").write_text(json.dumps(report))
    assert checks.eval_matches(out, frozen)


def test_selection(outputs, tmp_path):
    frozen = checks.load_frozen("select_sfs")
    features = run.inputs.ensure(run.WORKLOADS["select_sfs"].check_spec, checks.CHECK_SEED, run.CACHE_DIR, run.SRC)
    kwargs = dict(features_path=f"{features}/features.csv", k=3, sigma=0.3, seed=0, max_steps=2)
    out = _copy(outputs["select_sfs"], tmp_path)
    assert checks.selection_consistent(out, **kwargs) == []
    assert checks.trace_diff_steps(out, frozen) == 0

    steps = checks.read_selection(out)
    _rewrite_csv(out / "selection.csv", lambda rows: rows[2].__setitem__(3, repr(steps[0][1] / 2)))
    assert any("decreases" in f for f in checks.selection_consistent(out, **kwargs))
    _rewrite_csv(out / "selection.csv", lambda rows: rows[2].__setitem__(3, repr(steps[1][1] + 0.01)))
    assert any("recomputed" in f for f in checks.selection_consistent(out, **kwargs))
    assert checks.trace_diff_steps(out, frozen) == 1
    _rewrite_csv(out / "selection.csv", lambda rows: rows[1].__setitem__(1, str(steps[0][0] + 1)))
    assert checks.trace_diff_steps(out, frozen) == 2
