"""Span tracing of the pipeline from outside the package.

The tracer replaces public functions at the module attributes their callers
look up (``emgactions.features.assemble.burg_ar``,
``emgactions.crossval.select_sigma``, ``PnnModel.predict_batch``, ...) with
wrappers that record one span per call: name, start, end, parent span and
run id. Spans stay in memory; ``layer_metrics`` turns them into per-layer
numbers, and ``write_spans`` saves them when the benchmark ends. Leaving the
``with`` block restores every original attribute.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np


def _file_bytes(args, kwargs):
    fh = args[0] if args else kwargs.get("text")
    return os.fstat(fh.fileno()).st_size if hasattr(fh, "fileno") else len(fh)


def _inner_folds(args, kwargs):
    return kwargs.get("folds", args[3] if len(args) > 3 else 5)


def _predict_flop(args, kwargs):
    # 2 * rows * exemplars * D: the cross term of the squared distances,
    # computed from shapes rather than counted.
    model, X = args[0], args[1] if len(args) > 1 else kwargs["X"]
    stored = model.exemplars
    if isinstance(stored, np.ndarray) and stored.ndim == 2:
        exemplars = stored.shape[0]
    else:
        exemplars = sum(np.shape(E)[0] for E in stored)
    return 2.0 * np.shape(X)[0] * exemplars * model.n_features


def _patch_table():
    """(owner, attribute, span name, note) for every traced call site."""
    import emgactions.cli as cli
    import emgactions.crossval as crossval
    import emgactions.dataset as dataset
    import emgactions.features.assemble as assemble
    import emgactions.features.crosschannel as crosschannel
    import emgactions.pnn as pnn
    import emgactions.selection as selection

    return [
        (cli, "main", "cli.main", None),
        (cli, "load_dataset", "dataset.load_dataset", None),
        (cli, "extract_feature_matrix", "features.extract_feature_matrix", None),
        (cli, "write_feature_csv", "features.export.write_feature_csv", None),
        (cli, "read_feature_csv", "features.export.read_feature_csv", None),
        (cli, "monte_carlo", "crossval.monte_carlo", None),
        (cli, "sfs", "selection.sfs", None),
        (dataset, "parse_recording", "dataset.parse_recording", _file_bytes),
        (dataset, "split_trials", "dataset.split_trials", None),
        (assemble, "segment_channel", "dataset.segment_channel", None),
        (crosschannel, "segment_channel", "dataset.segment_channel", None),
        (assemble, "assemble_features", "features.assemble_features", None),
        (assemble, "tds", "features.tds", None),
        (assemble, "compute_ics", "features.ics", None),
        (crosschannel, "ics_max_xcorr", "features.ics_max_xcorr", None),
        (assemble, "power_spectrum", "features.lmf", None),
        (assemble, "spectral_moments", "features.lmf", None),
        (assemble, "lmf_features", "features.lmf", None),
        (assemble, "burg_ar", "features.sbp", None),
        (assemble, "ar_psd", "features.sbp", None),
        (assemble, "band_powers", "features.sbp", None),
        (assemble, "lbp_features", "features.lbp", None),
        (crossval, "select_sigma", "pnn.select_sigma", _inner_folds),
        (crossval, "fit_pnn", "pnn.fit_pnn", None),
        (pnn, "fit_pnn", "pnn.fit_pnn", None),
        (pnn.PnnModel, "predict_batch", "pnn.predict_batch", _predict_flop),
        (crossval, "kfold_cv", "crossval.kfold_cv", None),
        (selection, "kfold_cv", "crossval.kfold_cv", None),
    ]


class Tracer:
    """Records spans ``(name, start, end, parent, run, note)`` in call order.

    ``parent`` is the index of the enclosing span, or -1. ``note`` is a
    number taken from the call's arguments (bytes parsed, flop computed,
    inner folds), or None.
    """

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list = []
        self._saved: list = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            value = note(args, kwargs) if note else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run, value)

        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        import emgactions.cli as cli

        for owner, attr, name, note in _patch_table():
            self._set(owner, attr, self.wrap(name, getattr(owner, attr), note))
        make_criterion = cli.cv_accuracy_criterion

        @functools.wraps(make_criterion)
        def traced_criterion(*args, **kwargs):
            return self.wrap("selection.criterion", make_criterion(*args, **kwargs))

        self._set(cli, "cv_accuracy_criterion", traced_criterion)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


def write_spans(path: str, spans) -> None:
    """Write spans as tab-separated ``id name start end parent run note`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart\tend\tparent\trun\tnote\n")
        for idx, (name, start, end, parent, run, note) in enumerate(spans):
            fh.write(f"{idx}\t{name}\t{start!r}\t{end!r}\t{parent}\t{run}\t{note}\n")


def latency(samples_s) -> dict:
    """Median and tail latency in ms, with the tail percentile and sample count.

    The tail is the highest percentile that keeps at least ten samples beyond
    it, 100 * (1 - 10 / n), and never below the median.
    """
    n = len(samples_s)
    if n == 0:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": 0.0, "n": 0}
    ms = np.asarray(samples_s) * 1e3
    pct = max(50.0, 100.0 * (1.0 - 10.0 / n))
    return {
        "p50_ms": float(np.percentile(ms, 50)),
        "tail_ms": float(np.percentile(ms, pct)),
        "tail_pct": pct,
        "n": n,
    }


def layer_metrics(spans, runs: int) -> dict:
    """Per-layer metrics from the spans of ``runs`` traced commands.

    Times and counts are per command (totals divided by ``runs``); latency
    percentiles pool the spans of every run.
    """
    dur = defaultdict(list)
    self_s = defaultdict(float)
    note = defaultdict(float)
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    predicts_in_sigma = 0
    for idx, (name, start, end, parent, _, value) in enumerate(spans):
        dur[name].append(end - start)
        self_s[name] += end - start - child_time[idx]
        if value is not None:
            note[name] += value
        if name == "pnn.predict_batch" and parent >= 0 and spans[parent][0] == "pnn.select_sigma":
            predicts_in_sigma += 1

    def total(name):
        return sum(dur[name]) / runs

    def calls(name):
        return len(dur[name]) / runs

    def pooled(name):
        return {f"{name}.{k}": v for k, v in latency(dur[name]).items()}

    parse_s = sum(dur["dataset.parse_recording"])
    predict_s = sum(dur["pnn.predict_batch"])
    patterns = len(dur["features.assemble_features"])
    return {
        "dataset.load_dataset.s": total("dataset.load_dataset"),
        "dataset.parse_recording.s": total("dataset.parse_recording"),
        "dataset.parse_recording.calls": calls("dataset.parse_recording"),
        "dataset.parse_recording.MB_per_s": (
            note["dataset.parse_recording"] / parse_s / 1e6 if parse_s else 0.0
        ),
        **pooled("dataset.parse_recording"),
        "dataset.split_trials.s": total("dataset.split_trials"),
        "dataset.segment_channel.s": total("dataset.segment_channel"),
        "dataset.segment_channel.calls": calls("dataset.segment_channel"),
        "features.extract_feature_matrix.s": total("features.extract_feature_matrix"),
        "features.ms_per_pattern": (
            sum(dur["features.extract_feature_matrix"]) / patterns * 1e3 if patterns else 0.0
        ),
        "features.assemble.self_s": (
            self_s["features.extract_feature_matrix"] + self_s["features.assemble_features"]
        )
        / runs,
        **{f"features.{fam}.s": total(f"features.{fam}") for fam in ("tds", "ics", "lmf", "sbp", "lbp")},
        "features.ics_max_xcorr.calls": calls("features.ics_max_xcorr"),
        "features.export.write_feature_csv.s": total("features.export.write_feature_csv"),
        "features.export.read_feature_csv.s": total("features.export.read_feature_csv"),
        "pnn.select_sigma.self_s": self_s["pnn.select_sigma"] / runs,
        "pnn.select_sigma.calls": calls("pnn.select_sigma"),
        "pnn.select_sigma.predicts_per_split": (
            predicts_in_sigma / note["pnn.select_sigma"] if note["pnn.select_sigma"] else 0.0
        ),
        "pnn.fit_pnn.s": total("pnn.fit_pnn"),
        "pnn.fit_pnn.calls": calls("pnn.fit_pnn"),
        "pnn.predict_batch.s": total("pnn.predict_batch"),
        "pnn.predict_batch.calls": calls("pnn.predict_batch"),
        "pnn.predict_batch.gflop": note["pnn.predict_batch"] / 1e9 / runs,
        "pnn.predict_batch.gflop_per_s": (
            note["pnn.predict_batch"] / predict_s / 1e9 if predict_s else 0.0
        ),
        "crossval.kfold_cv.self_s": self_s["crossval.kfold_cv"] / runs,
        "crossval.kfold_cv.calls": calls("crossval.kfold_cv"),
        **pooled("crossval.kfold_cv"),
        "crossval.monte_carlo.s": total("crossval.monte_carlo"),
        "selection.sfs.self_s": self_s["selection.sfs"] / runs,
        "selection.criterion.calls": calls("selection.criterion"),
        **pooled("selection.criterion"),
        "cli.self_s": self_s["cli.main"] / runs,
    }
