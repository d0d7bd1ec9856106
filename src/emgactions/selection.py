"""Feature selection and sensitivity analyses.

Feature indices on every public surface here are the 1-based global indices
of the feature registry; matrix columns are indexed internally as index-1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from emgactions.crossval import MonteCarloResult, kfold_assignment, monte_carlo
from emgactions.crossval import kfold_cv  # noqa: F401 - perfbench/tracing.py patches it here
from emgactions.features.registry import BadIndexError, FeatureRegistry
from emgactions.features.spectral import LMF_COUNT
from emgactions.metrics import accuracy, confusion_matrix, kappa
from emgactions.pnn import NonFiniteScoreError, PnnConfig, classify_distances, fit_pnn


class NoFeaturesError(ValueError):
    """Selection needs at least one candidate feature."""


class ChannelUnusedWarning(UserWarning):
    """No selected feature touches the omitted channel."""


@dataclass
class SelectionTrace:
    """Greedy selection history: (added index, criterion after adding).

    Criterion values are nondecreasing along the trace because only steps
    that do not lower the criterion are accepted.
    """

    steps: list

    @property
    def selected(self) -> tuple:
        return tuple(idx for idx, _ in self.steps)

    @property
    def scores(self) -> tuple:
        return tuple(score for _, score in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def cv_accuracy_criterion(
    X,
    y,
    k: int = 3,
    config: PnnConfig = PnnConfig(sigma=0.3),
    seed: int = 0,
):
    """Build the default SFS criterion: seeded k-fold CV accuracy.

    The returned callable maps a tuple of 1-based feature indices to the
    pooled k-fold accuracy of the classifier restricted to those columns,
    ``kfold_cv(X[:, cols], y, k, config, seed).alpha``. The internal seed is
    fixed so candidate scores are comparable within a selection run.

    The folds, each fold's z-scoring statistics (fit on all of its training
    columns) and its class-sorted exemplar order are built once. Z-scoring
    is per column, so squared distances add up column by column: each fold
    caches the summed squared distances of the prefix (every index but the
    last) of the last call. A call whose prefix extends the cached one adds
    the new columns to the cache, any other prefix is summed afresh, and
    the candidate adds its own column. Memory: one float64 (n_test, n_train)
    cache per fold and one buffer of that size shared by the folds.

    The distances are summed directly as sum_j (x_j - e_j)^2 where
    PnnModel.predict_batch expands them, and numpy sums a lone column
    pairwise, so for one index the statistics can differ from kfold_cv's in
    the last bit. A label can therefore differ from kfold_cv's only where
    two class scores tie to rounding, as repeated discrete values can make
    them.

    Raises:
        ValueError: config.sigma is None (the criterion needs a fixed
            width), k < 2, or a value of X is NaN or infinite (named by its
            row in a fold's training rows and its column).
        NonFiniteScoreError: raised by a call whose squared distances
            overflow for some row of X, which the message names.
        NonPositiveSigmaError: sigma is not finite and > 0.
        TooFewSamplesError: some class has fewer than k samples.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if config.sigma is None:
        raise ValueError("the selection criterion needs a fixed sigma")
    assignment = kfold_assignment(y, k, seed)
    C = int(y.max())
    folds = [_Fold(X, y, assignment == f, config.sigma, C) for f in range(k)]
    caches = [np.zeros(fold.shape) for fold in folds]
    buffer = np.empty(max(cache.size for cache in caches))
    cached: list[int] = []

    def criterion(indices) -> float:
        nonlocal cached
        cols = [int(i) - 1 for i in indices]
        if not cols:
            raise NoFeaturesError("no feature indices to score")
        *prefix, last = cols
        if prefix:
            if prefix[: len(cached)] != cached:
                cached = []
                for cache in caches:
                    cache.fill(0.0)
            for c in prefix[len(cached) :]:
                for fold, cache in zip(folds, caches):
                    cache += fold.squared_differences(c, buffer)
            cached = prefix
        correct = 0
        for fold, cache in zip(folds, caches):
            d2 = fold.squared_differences(last, buffer)
            if prefix:
                d2 += cache
            try:
                labels, _ = classify_distances(
                    d2, fold.sigma, fold.counts, fold.class_ids, fold.priors, C
                )
            except NonFiniteScoreError as exc:
                raise NonFiniteScoreError(
                    int(fold.test[exc.row]),
                    f" on feature indices {tuple(c + 1 for c in cols)}",
                ) from None
            correct += int(np.count_nonzero(labels == fold.y_test))
        return correct / y.size

    return criterion


class _Fold:
    """One fold of the criterion: what fit_pnn fixes on its training rows.

    Attributes:
        shape: (n_test, n_train), the shape of its distance arrays, whose
            columns follow the class-sorted exemplar order.
    """

    def __init__(self, X, y, test, sigma, n_classes):
        train = np.flatnonzero(~test)
        model = fit_pnn(X[train], y[train], sigma, n_classes=n_classes)
        self.X = X
        self.test = np.flatnonzero(test)
        self.y_test = y[test]
        self.exemplars = train[np.argsort(y[train], kind="stable")]
        self.shape = (self.test.size, train.size)
        self.mean = model.normalizer.mean
        self.scale = model.normalizer.scale
        self.sigma = model.sigma
        self.priors = model.priors
        self.class_ids = model.class_ids
        self.counts = model.counts

    def squared_differences(self, c: int, buffer) -> np.ndarray:
        """(x_c - e_c)^2 for every (test row, exemplar) pair, in buffer.

        Column c is z-scored as Normalizer.transform does.
        """
        mean, scale = self.mean[c], self.scale[c]
        x = (self.X[self.test, c] - mean) / scale
        e = (self.X[self.exemplars, c] - mean) / scale
        out = buffer[: x.size * e.size].reshape(self.shape)
        np.subtract(x[:, np.newaxis], e, out=out)
        np.square(out, out=out)
        return out


def sfs(
    X,
    y,
    criterion=None,
    max_features: int = 60,
    patience: int = 1,
) -> SelectionTrace:
    """Sequential forward selection.

    Starting empty, each step scores every unselected feature appended to
    the current set and takes the best (ties toward the smallest index).
    Strict improvements reset the plateau counter; an equal-score step is
    accepted while fewer than `patience` such steps have accumulated; a step
    that would lower the criterion stops the search immediately.

    Raises:
        NoFeaturesError: the matrix has no columns.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    n_features = X.shape[1] if X.ndim == 2 else 0
    if n_features == 0:
        raise NoFeaturesError("no candidate features")
    if criterion is None:
        criterion = cv_accuracy_criterion(X, y)
    selected: list[int] = []
    steps: list[tuple[int, float]] = []
    current = -np.inf
    plateaus = 0
    remaining = list(range(1, n_features + 1))
    while remaining and len(selected) < max_features:
        best_idx = None
        best_score = -np.inf
        for idx in remaining:
            score = criterion(tuple(selected) + (idx,))
            if score > best_score:
                best_score = score
                best_idx = idx
        if best_score > current:
            plateaus = 0
        elif best_score == current:
            plateaus += 1
            if plateaus >= patience:
                break
        else:
            break
        selected.append(best_idx)
        remaining.remove(best_idx)
        steps.append((best_idx, best_score))
        current = best_score
    return SelectionTrace(steps)


def _constant_prediction_result(y, k: int, runs: int, base_seed: int, n_classes: int) -> MonteCarloResult:
    # Degenerate evaluation when no features remain: predict the smallest id.
    y = np.asarray(y, dtype=int)
    cm = confusion_matrix(y, np.ones_like(y), n_classes=n_classes)
    alpha = accuracy(cm)
    kap = kappa(cm)
    return MonteCarloResult(
        alphas=np.full(runs, alpha),
        kappas=np.full(runs, kap),
        confusion=cm * runs,
        folds=k,
        base_seed=base_seed,
    )


def channel_relevance(
    X,
    y,
    selected,
    registry: FeatureRegistry,
    channels: int = 8,
    k: int = 10,
    runs: int = 10,
    base_seed: int = 0,
    config: PnnConfig = PnnConfig(),
) -> list[MonteCarloResult]:
    """Re-evaluate with each channel's selected features omitted in turn.

    For channel m, every selected feature whose descriptor involves m (pair
    features count on either endpoint) is dropped and monte_carlo reruns on
    the remainder. Returns one result per channel 1..channels.

    Warns:
        ChannelUnusedWarning: omitting a channel drops nothing, so its
            result equals the full-selection run.

    If omitting a channel empties the feature set entirely, that channel is
    scored by a constant-prediction fallback (kappa 0) and a warning.
    """
    if len(selected) == 0:
        raise NoFeaturesError("selected feature set is empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    n_classes = int(y.max())
    for idx in selected:
        registry[int(idx)]
    results = []
    for ch in range(1, channels + 1):
        kept = tuple(i for i in selected if not registry[int(i)].touches_channel(ch))
        if len(kept) == len(selected):
            warnings.warn(
                f"no selected feature touches channel {ch}",
                ChannelUnusedWarning,
                stacklevel=2,
            )
        if not kept:
            warnings.warn(
                f"omitting channel {ch} leaves no features; scoring a constant predictor",
                UserWarning,
                stacklevel=2,
            )
            results.append(_constant_prediction_result(y, k, runs, base_seed, n_classes))
            continue
        cols = np.asarray(kept, dtype=int) - 1
        results.append(
            monte_carlo(X[:, cols], y, k=k, runs=runs, base_seed=base_seed, config=config)
        )
    return results


def ablation(
    X,
    y,
    groups,
    k: int = 10,
    runs: int = 10,
    base_seed: int = 0,
    config: PnnConfig = PnnConfig(),
) -> list[tuple[str, MonteCarloResult]]:
    """Evaluate cumulative feature groups in order.

    `groups` maps group name to an iterable of 1-based feature indices; the
    g-th evaluation uses the union of the first g groups, so consecutive
    results measure the contribution of each added group.

    Raises:
        BadIndexError: an index falls outside the matrix columns.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if not groups:
        raise ValueError("groups must be nonempty")
    results = []
    cumulative: list[int] = []
    for name, indices in groups.items():
        for idx in indices:
            if not 1 <= int(idx) <= X.shape[1]:
                raise BadIndexError(f"feature index {idx} outside 1..{X.shape[1]}")
            if int(idx) not in cumulative:
                cumulative.append(int(idx))
        if not cumulative:
            raise NoFeaturesError(f"group {name!r} leaves no features to evaluate")
        cols = np.asarray(sorted(cumulative), dtype=int) - 1
        results.append(
            (name, monte_carlo(X[:, cols], y, k=k, runs=runs, base_seed=base_seed, config=config))
        )
    return results


# Feature subset shipped as the package's reproducible default for the
# 276-feature registry on the 8-channel physical-action corpus, listed by
# modality-local index.
_SELECTED_LOCAL = {
    "tds": (1, 7, 9, 10, 11, 17, 23, 25, 29),
    "ics": (3, 6, 12),
    "lmf": (4, 10, 11, 14, 16, 24, 29, 30, 34, 41, 42, 48, 78, 107, 126),
    "sbp": (11, 13, 23, 26, 30, 31, 66),
    "lbp": (5, 9),
}


def reference_selection(registry: FeatureRegistry) -> tuple:
    """Global indices of the shipped default feature subset (ascending).

    36 features over all five modalities; intended for the default
    276-feature registry.
    """
    by_modality = {
        mod: registry.modality_indices(mod) for mod in _SELECTED_LOCAL
    }
    out = []
    for mod, locals_ in _SELECTED_LOCAL.items():
        block = by_modality[mod]
        for q in locals_:
            if not 1 <= q <= len(block):
                raise BadIndexError(f"{mod} local index {q} outside 1..{len(block)}")
            out.append(block[q - 1])
    return tuple(sorted(out))


def ablation_groups(selected, registry: FeatureRegistry) -> dict:
    """Split a selected set into the standard cumulative ablation groups.

    baseline: selected features except ICS and except log-moment features
    beyond the five classical ones (within-modality f1..f5); ics: the
    selected pair features; lmf: the remaining selected log-moment features.
    """
    baseline, ics, lmf_extra = [], [], []
    for idx in selected:
        d = registry[int(idx)]
        if d.modality == "ics":
            ics.append(int(idx))
        elif d.modality == "lmf" and ((d.within - 1) % LMF_COUNT) + 1 >= 6:
            lmf_extra.append(int(idx))
        else:
            baseline.append(int(idx))
    return {"baseline": baseline, "ics": ics, "lmf": lmf_extra}
