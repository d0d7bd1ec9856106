"""Evaluation results frozen from a small seeded matrix.

``tests/data/golden_eval.json`` holds what the evaluation kernel produced on
the matrix below: a sigma-searching Monte-Carlo run, a two-step forward
selection with the default criterion, and the posteriors of three fitted
models. The file was written by the per-class distance loop that preceded
the class-sorted exemplar matrix, so a change in fold assignment, sigma
choice, tie-breaking or kernel arithmetic shows here. Rebuild it only when
the results are meant to change:

    PYTHONPATH=src python -m tests.test_golden_eval
"""

import json
import os
import warnings

import numpy as np
import pytest

from emgactions.crossval import monte_carlo
from emgactions.experiment import ExperimentConfig
from emgactions.pnn import EmptyClassWarning, PnnConfig, fit_pnn
from emgactions.selection import sfs

from ._synth import blobs

PATH = os.path.join(os.path.dirname(__file__), "data", "golden_eval.json")
# Allowed posterior drift, relative to each value.
RTOL = 1e-10


def golden_matrix():
    """Four overlapping classes, so accuracy, sigma choice and ties all matter."""
    return blobs(n_per_class=12, n_classes=4, dim=6, spread=1.5, separation=1.0, seed=21)


def _models():
    X, y = golden_matrix()
    train = np.arange(y.size) % 3 != 0
    keep = train & (y != 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyClassWarning)
        missing = fit_pnn(X[keep], y[keep], sigma=0.8, n_classes=4)
    return X[~train], {
        "normal": fit_pnn(X[train], y[train], sigma=0.5),
        "missing_class": missing,
        "tiny_sigma": fit_pnn(X[train], y[train], sigma=1e-3),
    }


def _results():
    X, y = golden_matrix()
    mc = monte_carlo(X, y, k=5, runs=2, base_seed=3, config=PnnConfig(sigma=None))
    trace = sfs(X, y, max_features=2)
    queries, models = _models()
    posteriors = {}
    for name, model in models.items():
        labels, post = model.predict_batch(queries)
        posteriors[name] = {"labels": labels.tolist(), "posteriors": post.tolist()}
    return {
        "monte_carlo": {
            "alphas": mc.alphas.tolist(),
            "kappas": mc.kappas.tolist(),
            "confusion": mc.confusion.tolist(),
        },
        "sfs": [[int(idx), float(score)] for idx, score in trace.steps],
        "posteriors": posteriors,
    }


@pytest.fixture(scope="module")
def frozen():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_monte_carlo_matches_frozen(frozen):
    X, y = golden_matrix()
    mc = monte_carlo(X, y, k=5, runs=2, base_seed=3, config=PnnConfig(sigma=None))
    want = frozen["monte_carlo"]
    assert mc.alphas.tolist() == want["alphas"]
    assert mc.kappas.tolist() == want["kappas"]
    assert mc.confusion.tolist() == want["confusion"]


def test_sfs_trace_matches_frozen(frozen):
    X, y = golden_matrix()
    trace = sfs(X, y, max_features=2)
    assert [[idx, score] for idx, score in trace.steps] == frozen["sfs"]


@pytest.mark.parametrize("name", ["normal", "missing_class", "tiny_sigma"])
def test_posteriors_match_frozen(frozen, name):
    queries, models = _models()
    labels, post = models[name].predict_batch(queries)
    want = frozen["posteriors"][name]
    assert labels.tolist() == want["labels"]
    np.testing.assert_allclose(post, want["posteriors"], rtol=RTOL, atol=0.0)


def test_default_config_dict():
    assert ExperimentConfig().to_dict() == {
        "manifest": None,
        "channels": 8,
        "window": None,
        "ar_order": 4,
        "psd_grid": 100,
        "n_bands": 10,
        "lbp_window": 8,
        "lbp_threshold": 127,
        "pairs": ["3-4", "2-4", "2-3", "1-4", "1-3", "1-2", "7-8", "6-8", "6-7", "5-8", "4-7", "5-6"],
        "sigma": None,
        "sigma_grid": [0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 1.5],
        "selection_folds": 5,
        "cv_folds": 10,
        "runs": 10,
        "seed": 0,
        "max_features": 60,
        "patience": 1,
        "sfs_folds": 3,
        "sfs_sigma": 0.3,
        "out": ".",
    }


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(_results(), fh, indent=1)
        fh.write("\n")
