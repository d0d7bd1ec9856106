"""End-to-end acceptance gate for the shipped pipeline.

Each test below is one pass/fail line under ``pytest -v``: frozen reference
metrics, the full pipeline on synthetic corpora with known structure,
numerical micro-oracles, and eight randomized invariant sweeps of at least
1000 cases each. The only test that needs external data is the real-corpus
run, gated on the EMGACTIONS_DATASET environment variable.
"""

import csv
import os
import time
import warnings

import numpy as np
import pytest

from emgactions.crossval import kfold_cv, monte_carlo
from emgactions.dataset import load_dataset, scan_action_tree
from emgactions.features.assemble import FeatureConfig, extract_feature_matrix, registry_for
from emgactions.features.autoregressive import band_powers, burg_ar
from emgactions.features.localbinary import lbp_features
from emgactions.features.spectral import power_spectrum, spectral_moments
from emgactions.metrics import accuracy, kappa
from emgactions.pnn import PnnConfig, fit_pnn
from emgactions.selection import (
    ablation,
    channel_relevance,
    cv_accuracy_criterion,
    reference_selection,
    sfs,
)
from ._synth import action_recordings, blobs, correlated_recordings

DATASET_ENV = "EMGACTIONS_DATASET"


def load_confusion(name):
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "label"
    return np.array([[int(v) for v in row[1:]] for row in rows[1:]], dtype=int)


def ar1_realization(rho, n, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = rho * x[i - 1] + e[i]
    return x


def test_acceptance_1_reference_pnn_confusion_metrics():
    """The frozen 20-class reference confusion gives alpha 0.9275, kappa 0.924."""
    start = time.monotonic()
    cm = load_confusion("pnn_10fold_confusion.csv")
    assert cm.shape == (20, 20)
    assert cm.sum() == 1200
    assert np.trace(cm) == 1113
    assert accuracy(cm) == 1113 / 1200
    assert abs(kappa(cm) - 0.924) <= 1e-3
    assert time.monotonic() - start < 1.0


def test_acceptance_2_reference_svm_confusion_metrics():
    """The frozen comparison-classifier confusion gives alpha 0.915, kappa 0.91."""
    start = time.monotonic()
    cm = load_confusion("svm_10fold_confusion.csv")
    assert cm.shape == (20, 20)
    assert cm.sum() == 1200
    assert abs(accuracy(cm) - 0.915) <= 2e-3
    assert abs(kappa(cm) - 0.91) <= 5e-3
    assert time.monotonic() - start < 1.0


@pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=(
        "set EMGACTIONS_DATASET to the unpacked corpus root (subject dirs with one "
        "recording per action) to run the real-data pipeline; the synthetic "
        "end-to-end test covers the same code path"
    ),
)
def test_acceptance_3_real_corpus_pipeline():
    """Full pipeline on the public corpus: 10-fold alpha >= 0.88, kappa >= 0.87."""
    start = time.monotonic()
    manifest = scan_action_tree(os.environ[DATASET_ENV])
    recordings = list(load_dataset(manifest))
    assert sum(len(rec.trials) for rec in recordings) == 1200
    cfg = FeatureConfig()
    X, y, _, _ = extract_feature_matrix(recordings, cfg)
    registry = registry_for(cfg)
    cols = np.asarray(reference_selection(registry), dtype=int) - 1
    result = monte_carlo(X[:, cols], y, k=10, runs=10, base_seed=0, config=PnnConfig())
    assert result.mean_alpha >= 0.88
    assert result.mean_kappa >= 0.87
    assert time.monotonic() - start < 1800.0


def test_acceptance_4_synthetic_end_to_end():
    """Selection finds the informative channel, CV kappa >= 0.95, relevance collapses; < 300 s."""
    start = time.monotonic()
    recordings = action_recordings(seed=0)  # 20 classes x 60 trials, channel 1 informative
    cfg = FeatureConfig()
    X, y, _, _ = extract_feature_matrix(recordings, cfg)
    registry = registry_for(cfg)

    # greedy selection on a stratified 15-per-class subsample
    rng = np.random.default_rng(0)
    keep = np.sort(
        np.concatenate(
            [rng.choice(np.flatnonzero(y == c), 15, replace=False) for c in range(1, 21)]
        )
    )
    criterion = cv_accuracy_criterion(X[keep], y[keep], k=3, sigma=0.3, seed=0)
    trace = sfs(X[keep], y[keep], criterion=criterion, max_features=8, patience=1)
    assert 1 <= len(trace) <= 8
    assert all(registry[i].touches_channel(1) for i in trace.selected)

    cols = np.asarray(trace.selected, dtype=int) - 1
    result = monte_carlo(X[:, cols], y, k=10, runs=3, base_seed=100, config=PnnConfig())
    assert result.mean_alpha >= 0.95
    assert result.mean_kappa >= 0.95

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        relevance = channel_relevance(
            X, y, trace.selected, registry,
            k=10, runs=2, base_seed=100, config=PnnConfig(sigma=0.3),
        )
    kappas = [r.mean_kappa for r in relevance]
    assert min(kappas[1:]) - kappas[0] >= 0.5
    assert time.monotonic() - start < 300.0


def test_acceptance_5_numerical_oracles():
    """Spectra match a direct DFT, AR recovery is unbiased, kernel scores match a distance oracle."""
    # quadratic-time 1-based DFT evaluation vs the FFT implementation
    rng = np.random.default_rng(50)
    for _ in range(100):
        L = int(rng.integers(1, 65))
        s = rng.normal(0, 2, L)
        idx = np.arange(1, L + 1)
        W = np.exp(-2j * np.pi * np.outer(idx, idx) / L)
        direct = np.abs(s @ W) ** 2
        mine = power_spectrum(s)
        assert np.max(np.abs(mine - direct)) <= 1e-9 * max(1.0, float(direct.max()))

    # first-order autoregression recovered to +-0.05 from long realizations
    for seed in range(10):
        model = burg_ar(ar1_realization(0.5, 4096, seed), 1)
        assert abs(model.coefficients[1] + 0.5) <= 0.05

    # at vanishing bandwidth the classifier is the nearest-exemplar rule
    rng = np.random.default_rng(51)
    disagreements = 0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        X = rng.normal(0, 1, (50, d))
        y = rng.integers(1, 3, 50)
        y[0], y[1] = 1, 2
        model = fit_pnn(X, y, sigma=1e-3)
        mean, std = X.mean(axis=0), X.std(axis=0)
        std[std == 0] = 1.0
        Z = (X - mean) / std
        Q = rng.normal(0, 1, (20, d))
        labels, _ = model.predict_batch(Q)
        for q, got in zip(Q, labels):
            want = y[np.argmin(np.linalg.norm(Z - (q - mean) / std, axis=1))]
            disagreements += int(got != want)
    assert disagreements == 0


def test_acceptance_6_invariant_moment_monotonicity():
    """g(0..6) is nonnegative and nondecreasing for any nonnegative spectrum."""
    rng = np.random.default_rng(70)
    for _ in range(1000):
        L = int(rng.integers(1, 65))
        psi = rng.uniform(0, 10, L)
        psi[rng.random(L) < 0.2] = 0.0
        g = spectral_moments(psi)
        assert np.all(g >= 0)
        assert np.all(np.diff(g) >= -1e-9 * max(1.0, float(g[-1])))


def test_acceptance_6_invariant_spectrum_energy():
    """Mean spectral power equals the signal energy (Parseval)."""
    rng = np.random.default_rng(71)
    for _ in range(1000):
        L = int(rng.integers(1, 129))
        s = rng.normal(0, rng.uniform(0.5, 3.0), L)
        total = power_spectrum(s).sum() / L
        direct = float(np.dot(s, s))
        assert abs(total - direct) <= 1e-9 * max(1.0, direct)


def test_acceptance_6_invariant_band_conservation():
    """Band powers partition the spectrum: their sum equals the total power."""
    rng = np.random.default_rng(72)
    for _ in range(1000):
        psd = rng.uniform(0, 5, 100)
        eta = band_powers(psd, 10)
        assert eta.shape == (10,)
        assert np.all(eta >= 0)
        assert abs(eta.sum() - psd.sum()) <= 1e-9 * max(1.0, float(psd.sum()))


def test_acceptance_6_invariant_lbp_partition():
    """The two code counts always partition the set of windows."""
    rng = np.random.default_rng(73)
    for _ in range(1000):
        L = int(rng.integers(8, 101))
        x = rng.normal(0, rng.uniform(0.5, 20.0), L)
        out = lbp_features(x)
        assert out[0] >= 0 and out[1] >= 0
        assert out[0] + out[1] == L - 7


def test_acceptance_6_invariant_posterior_normalization():
    """Class posteriors are a probability vector for any query."""
    X, y = blobs(n_per_class=25, n_classes=4, dim=6, spread=1.0, seed=68)
    model = fit_pnn(X, y, sigma=0.4)
    rng = np.random.default_rng(69)
    Q = rng.normal(0, 3, (1000, 6))
    labels, post = model.predict_batch(Q)
    assert post.shape == (1000, 4)
    assert np.all(post >= 0)
    assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)
    assert np.array_equal(labels, np.argmax(post, axis=1) + 1)


def test_acceptance_6_invariant_confusion_totals():
    """Pooled k-fold confusion counts every sample exactly once."""
    rng = np.random.default_rng(66)
    for case in range(1000):
        C = int(rng.integers(2, 4))
        per = int(rng.integers(3, 6))
        d = int(rng.integers(1, 4))
        X = rng.normal(0, 1, (C * per, d))
        y = np.repeat(np.arange(1, C + 1), per)
        k = int(rng.integers(2, per + 1))
        report = kfold_cv(X, y, k=k, config=PnnConfig(sigma=0.5), seed=case)
        assert report.confusion.sum() == y.size
        assert np.array_equal(report.confusion.sum(axis=1), np.full(C, per))


def test_acceptance_6_invariant_kfold_determinism():
    """Identical data, seed, and config always give identical results."""
    rng = np.random.default_rng(65)
    for case in range(1000):
        C = int(rng.integers(2, 4))
        per = int(rng.integers(3, 6))
        d = int(rng.integers(1, 4))
        X = rng.normal(0, 1, (C * per, d))
        y = np.repeat(np.arange(1, C + 1), per)
        k = int(rng.integers(2, per + 1))
        a = kfold_cv(X, y, k=k, config=PnnConfig(sigma=0.5), seed=case)
        b = kfold_cv(X, y, k=k, config=PnnConfig(sigma=0.5), seed=case)
        assert a.alpha == b.alpha
        assert a.kappa == b.kappa
        assert np.array_equal(a.confusion, b.confusion)


def test_acceptance_6_invariant_selection_monotonicity():
    """Greedy selection never accepts a step that lowers its criterion."""
    rng = np.random.default_rng(67)
    for case in range(1000):
        n = int(rng.integers(8, 13)) * 2
        d = int(rng.integers(2, 5))
        X = rng.normal(0, 1, (n, d))
        y = np.tile([1, 2], n // 2)
        criterion = cv_accuracy_criterion(X, y, k=2, sigma=0.5, seed=case)
        trace = sfs(X, y, criterion=criterion, max_features=d)
        assert len(trace) >= 1
        scores = trace.scores
        assert all(b >= a for a, b in zip(scores, scores[1:]))


def test_acceptance_7_cross_channel_features_lift_kappa():
    """On classes that differ only in inter-channel correlation, adding the pair features lifts kappa."""
    recordings = correlated_recordings(seed=11)
    cfg = FeatureConfig()
    X, y, _, _ = extract_feature_matrix(recordings, cfg)
    registry = registry_for(cfg)
    groups = {
        "tds": list(registry.modality_indices("tds")),
        "ics": list(registry.modality_indices("ics")),
    }
    out = ablation(X, y, groups, k=5, runs=2, base_seed=0, config=PnnConfig(sigma=0.3))
    base = out[0][1].mean_kappa
    with_ics = out[1][1].mean_kappa
    assert base <= 0.45  # single-channel statistics carry almost no signal
    assert with_ics >= 0.6
    assert with_ics - base >= 0.3
