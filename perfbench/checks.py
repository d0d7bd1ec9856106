"""Output checks behind the benchmark's ``correct`` figure.

Each check returns a list of failure messages; an empty list is a pass.
Frozen values live in ``frozen/``: they were produced by this package on the
check inputs (the workload's command on a small input made from
``CHECK_SEED``), and ``python3 perfbench/checks.py --freeze`` rewrites them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN_DIR = os.path.join(HERE, "frozen")
CHECK_SEED = 0
# The tolerance features may drift by when their arithmetic is reordered.
# It is relative to the larger of the value and its column's magnitude over
# the frozen rows, so a feature near zero is not held to a tighter bound
# than its neighbours.
FEATURE_RTOL = 1e-10
# Rows of the check input's features.csv whose values are frozen.
SAMPLE_ROWS = (0, 7, 16, 29, 44)


def digests(out_dir: str) -> dict:
    """SHA-256 of every file under ``out_dir``, keyed by relative path."""
    found = {}
    for dirpath, _, filenames in os.walk(out_dir):
        for fname in filenames:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def identical_repeats(rep_digests: list) -> list:
    """Every repeat wrote the same files with the same bytes."""
    first = rep_digests[0]
    failures = []
    for i, d in enumerate(rep_digests[1:], start=2):
        changed = sorted(k for k in d.keys() | first.keys() if d.get(k) != first.get(k))
        if changed:
            failures.append(f"repeat {i} outputs differ from repeat 1 in {changed}")
    return failures


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def registry_matches(out_dir: str) -> list:
    """registry.csv equals the frozen copy byte for byte."""
    path = os.path.join(out_dir, "registry.csv")
    if not os.path.isfile(path):
        return ["registry.csv missing"]
    if _read_text(path) != _read_text(os.path.join(FROZEN_DIR, "registry.csv")):
        return ["registry.csv differs from the frozen copy"]
    return []


def _feature_rows(path: str) -> tuple:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def feature_shape(out_dir: str, patterns: int, frozen_header: list) -> list:
    """features.csv has the registry header and one row per pattern."""
    path = os.path.join(out_dir, "features.csv")
    if not os.path.isfile(path):
        return ["features.csv missing"]
    header, rows = _feature_rows(path)
    failures = []
    if header != frozen_header:
        failures.append("features.csv header differs from the frozen header")
    if len(rows) != patterns:
        failures.append(f"features.csv has {len(rows)} rows, expected {patterns}")
    return failures


def feature_rows_match(out_dir: str, frozen: dict) -> list:
    """Sampled features.csv rows match the frozen values within FEATURE_RTOL."""
    path = os.path.join(out_dir, "features.csv")
    if not os.path.isfile(path):
        return ["features.csv missing"]
    _, rows = _feature_rows(path)
    expected = np.array([frozen["rows"][str(i)] for i in SAMPLE_ROWS])
    try:
        got = np.array([[float(v) for v in rows[i]] for i in SAMPLE_ROWS])
    except (IndexError, ValueError) as exc:
        return [f"features.csv sample rows unreadable: {exc}"]
    if got.shape != expected.shape:
        return [f"features.csv sample rows have shape {got.shape}, expected {expected.shape}"]
    scale = np.maximum(np.abs(expected), np.abs(expected).max(axis=0))
    bad = np.argwhere(np.abs(got - expected) > FEATURE_RTOL * scale)
    return [
        f"features.csv row {SAMPLE_ROWS[r]} column {c + 1}: {got[r, c]!r} != frozen {expected[r, c]!r}"
        for r, c in bad[:5]
    ]


def read_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def eval_matches(out_dir: str, frozen: dict) -> list:
    """report.json alpha, kappa and confusion equal the frozen values."""
    try:
        report = read_report(out_dir)
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    return [
        f"report.json {key} = {report.get(key)!r}, frozen {frozen[key]!r}"
        for key in ("alpha", "kappa", "confusion")
        if report.get(key) != frozen[key]
    ]


def read_selection(out_dir: str) -> list:
    """(index, criterion) per step of selection.csv."""
    with open(os.path.join(out_dir, "selection.csv"), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(int(r["index"]), float(r["criterion"])) for r in rows]


def selection_consistent(out_dir: str, features_path: str, k: int, sigma: float, seed: int, max_steps: int) -> list:
    """Criteria never decrease and each equals a fresh k-fold CV on its prefix."""
    from emgactions.crossval import kfold_cv
    from emgactions.pnn import PnnConfig

    try:
        steps = read_selection(out_dir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"selection.csv unreadable: {exc}"]
    if not 1 <= len(steps) <= max_steps:
        return [f"selection.csv has {len(steps)} steps, expected 1..{max_steps}"]
    failures = [
        f"criterion decreases at step {i + 1}: {steps[i][1]!r} < {steps[i - 1][1]!r}"
        for i in range(1, len(steps))
        if steps[i][1] < steps[i - 1][1]
    ]
    data = np.loadtxt(features_path, delimiter=",", skiprows=1)
    X, y = data[:, :-3], data[:, -1].astype(int)
    for i in range(len(steps)):
        cols = np.array([idx for idx, _ in steps[: i + 1]]) - 1
        alpha = kfold_cv(X[:, cols], y, k=k, config=PnnConfig(sigma=sigma), seed=seed).alpha
        if alpha != steps[i][1]:
            failures.append(
                f"step {i + 1} criterion {steps[i][1]!r} != recomputed {alpha!r}"
            )
    return failures


def trace_diff_steps(out_dir: str, frozen: dict) -> int:
    """Steps whose (index, criterion) differ from the frozen trace."""
    expected = frozen["steps"]
    try:
        steps = [list(s) for s in read_selection(out_dir)]
    except (OSError, KeyError, ValueError):
        return len(expected)
    return sum(a != b for a, b in zip(steps, expected)) + abs(len(steps) - len(expected))


def load_frozen(workload: str) -> dict:
    with open(os.path.join(FROZEN_DIR, f"{workload}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def freeze(workload: str, out_dir: str) -> None:
    """Record the values ``check_outputs`` compares against from ``out_dir``."""
    os.makedirs(FROZEN_DIR, exist_ok=True)
    if workload.startswith("ingest"):
        header, rows = _feature_rows(os.path.join(out_dir, "features.csv"))
        frozen = {
            "header": header,
            "patterns": len(rows),
            "rows": {str(i): [float(v) for v in rows[i]] for i in SAMPLE_ROWS},
        }
        with open(os.path.join(out_dir, "registry.csv"), "rb") as src:
            with open(os.path.join(FROZEN_DIR, "registry.csv"), "wb") as dst:
                dst.write(src.read())
    elif workload == "eval_auto":
        report = read_report(out_dir)
        frozen = {key: report[key] for key in ("alpha", "kappa", "confusion")}
    else:
        frozen = {"steps": [list(s) for s in read_selection(out_dir)]}
    with open(os.path.join(FROZEN_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__" and sys.argv[1:] == ["--freeze"]:
    import run

    sys.path.insert(0, run.SRC)
    for name in run.WORKLOADS:
        out, failed = run.check_run(run.WORKLOADS[name])
        if failed:
            sys.exit(failed[0])
        freeze(name, out)
        print(f"froze {name} from {out}")
