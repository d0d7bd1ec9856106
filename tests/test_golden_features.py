"""Feature matrices frozen from a small seeded corpus.

``tests/data/golden_features_<name>.csv`` holds ``extract_feature_matrix``
output for the recordings below, one row per trial: the feature columns, then
label, subject id and trial index. The files were written by the
per-segment implementation that preceded the array-shaped one, so any
numerical drift of a rewrite shows here. Rebuild them only when the features
are meant to change:

    PYTHONPATH=src python -m tests.test_golden_features
"""

import os

import numpy as np
import pytest

from emgactions.features.assemble import FeatureConfig, extract_feature_matrix

from ._synth import action_recordings, correlated_recordings

DATA = os.path.join(os.path.dirname(__file__), "data")
# Allowed drift, relative to each column's largest frozen magnitude.
RTOL = 1e-10
# 200-sample trials: window 64 gives 3 segments and drops an 8-sample remainder.
CONFIGS = {"full": FeatureConfig(), "window64": FeatureConfig(window=64)}


def golden_recordings():
    """Five recordings of two trials each, with trials of two lengths."""
    return action_recordings(
        n_classes=3, per_class=2, samples=200, seed=4
    ) + correlated_recordings(levels=(0.3, 0.9), per_class=2, samples=150, seed=5)


def _path(name):
    return os.path.join(DATA, f"golden_features_{name}.csv")


def _matrix(config):
    X, y, subjects, trials = extract_feature_matrix(golden_recordings(), config)
    return np.column_stack([X, y, subjects, trials])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_features_match_frozen(name):
    frozen = np.loadtxt(_path(name), delimiter=",", ndmin=2)
    got = _matrix(CONFIGS[name])
    assert got.shape == frozen.shape
    np.testing.assert_array_equal(got[:, -3:], frozen[:, -3:])
    X, G = got[:, :-3], frozen[:, :-3]
    scale = np.abs(G).max(axis=0)
    excess = np.abs(X - G) - RTOL * scale
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    assert excess[worst] <= 0.0, f"row {worst[0]} column {worst[1] + 1} drifted"


if __name__ == "__main__":
    for name, config in CONFIGS.items():
        np.savetxt(_path(name), _matrix(config), fmt="%.17g", delimiter=",")
