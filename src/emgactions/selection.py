"""Feature selection and sensitivity analyses.

Feature indices on every public surface here are the 1-based global indices
of the feature registry; matrix columns are indexed internally as index-1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from emgactions.crossval import (
    MonteCarloResult,
    cell_processes,
    fold_splits,
    kfold_assignment,
    map_chunks,
    monte_carlo,
    split_cells,
)
from emgactions.crossval import kfold_cv  # noqa: F401 - perfbench/tracing.py patches it here
from emgactions.features.registry import BadIndexError, FeatureRegistry
from emgactions.features.spectral import LMF_COUNT
from emgactions.metrics import accuracy, confusion_matrix, kappa
from emgactions.pnn import (
    ROW_BLOCK,
    Fold,
    NonFiniteScoreError,
    PnnConfig,
    check_sigma,
    classify_distances,
    overflow_error,
    require_finite,
)


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
    sigma: float = 0.3,
    seed: int = 0,
):
    """Build the default SFS criterion: seeded k-fold CV accuracy.

    The returned callable, criterion(selected, candidates), scores one SFS
    step. For each 1-based candidate index c, in order, it returns the pooled
    k-fold accuracy of the classifier restricted to the columns
    selected + (c,), ``kfold_cv(X[:, cols], y, k, PnnConfig(sigma), seed).alpha``.
    The internal seed is fixed so candidate scores are comparable within a
    selection run.

    The folds, each fold's z-scoring statistics (fit on all of its training
    columns) and its class-sorted exemplar order are built once; a call
    keeps nothing for the next. Z-scoring is per column, so squared
    distances add up column by column: a call takes each fold's test rows
    ROW_BLOCK at a time, sums the block's squared distances over the
    selected columns, in order, and adds each candidate's column to that
    sum. Memory: two float64 (ROW_BLOCK, n_train) buffers per call.

    A call whose step's distance cells are worth more than one process by
    crossval.cell_processes scores contiguous chunks of the candidates at
    once through crossval.map_chunks, one per usable CPU, with the same
    arithmetic, so every score keeps its bits and the first failing
    candidate fails.

    The distances are summed directly as sum_j (x_j - e_j)^2 where
    PnnModel.distances expands them, and numpy sums a lone column
    pairwise, so for one index the statistics can differ from kfold_cv's in
    the last bit. A label can therefore differ from kfold_cv's only where
    two class scores tie to rounding, as repeated discrete values can make
    them.

    Raises:
        ValueError: k < 2, or a value of X is NaN or infinite (named by
            its row and column of X).
        NonFiniteScoreError: raised by a call whose squared distances
            overflow for some row of X; it names that row and the column
            of X farthest from its training mean, for the first candidate
            that overflows and its first such fold.
        NonPositiveSigmaError: sigma is not finite and > 0.
        TooFewSamplesError: some class has fewer than k samples.
        RuntimeError: raised by a call whose forked process exited without
            sending its scores.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    require_finite(X, "X")
    splits = fold_splits(kfold_assignment(y, k, seed))
    C = int(y.max())
    folds = [Fold(X, y, train, test, C) for train, test in splits]
    sigma = check_sigma(sigma)
    n_train = max(fold.exemplars.size for fold in folds)
    cells_per_candidate = split_cells(splits)

    def squared_differences(fold, c: int, rows, out) -> np.ndarray:
        """(x_c - e_c)^2 for every (row, exemplar) pair of fold, in out.

        Column c is z-scored as PnnModel.distances does; (e - x)^2 is
        (x - e)^2 bit for bit, and e - x in place spares a numpy buffer.
        """
        mean, scale = fold.mean[c], fold.scale[c]
        out[...] = (X[fold.exemplars, c] - mean) / scale
        out -= ((X[rows, c] - mean) / scale)[:, np.newaxis]
        np.square(out, out=out)
        return out

    def score(selected, candidates) -> list:
        """Correct count per candidate; raises the error of the first
        candidate whose distances overflow."""
        summed, buffer = np.empty((2, ROW_BLOCK * n_train))
        correct = [0] * len(candidates)
        # NonFiniteScoreError reports an overflow; numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            for fold in folds:
                for start in range(0, fold.test.size, ROW_BLOCK):
                    rows = fold.test[start : start + ROW_BLOCK]
                    y_rows = y[rows]
                    size = rows.size * fold.exemplars.size
                    prefix = summed[:size].reshape(rows.size, -1)
                    d2 = buffer[:size].reshape(rows.size, -1)
                    prefix.fill(0.0)
                    for c in selected:
                        prefix += squared_differences(fold, c, rows, d2)
                    for i, c in enumerate(candidates):
                        squared_differences(fold, c, rows, d2)
                        if selected:
                            d2 += prefix
                        try:
                            labels, _ = classify_distances(
                                d2, sigma, fold.counts, fold.class_ids, C
                            )
                        except NonFiniteScoreError as exc:
                            cols = selected + [c]
                            z = (X[rows[exc.row], cols] - fold.mean[cols]) / fold.scale[cols]
                            # An earlier candidate can fail only in a later
                            # block or fold; scored alone, it raises first.
                            for earlier in candidates[:i]:
                                score(selected, [earlier])
                            raise overflow_error(exc.row, z).reindexed(rows, cols) from None
                        correct[i] += int(np.count_nonzero(labels == y_rows))
        return correct

    def criterion(selected, candidates) -> list:
        selected = [int(i) - 1 for i in selected]
        candidates = [int(i) - 1 for i in candidates]
        if not candidates:
            raise NoFeaturesError("no candidate feature to score")
        # Chunks keep candidate order, so the first failing chunk holds the
        # first failing candidate.
        processes = cell_processes(len(candidates) * cells_per_candidate)
        chunks = map_chunks(lambda chunk: score(selected, chunk), candidates, processes)
        return [count / y.size for counts in chunks for count in counts]

    return criterion


def sfs(
    X,
    y,
    criterion=None,
    max_features: int = 60,
    patience: int = 1,
    on_step=None,
) -> SelectionTrace:
    """Sequential forward selection.

    Starting empty, each step scores every unselected feature appended to
    the current set, in one call criterion(selected, candidates) that
    returns a score per candidate, and takes the best (ties toward the
    smallest index).
    Strict improvements reset the plateau counter; an equal-score step is
    accepted while fewer than `patience` such steps have accumulated; a step
    that would lower the criterion stops the search immediately.
    on_step, if given, is called as on_step(step, index, score) after each
    accepted step, with step counted from 1.

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
        scores = list(criterion(tuple(selected), tuple(remaining)))
        best_score = max(scores)
        best_idx = remaining[scores.index(best_score)]
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
        if on_step is not None:
            on_step(len(steps), best_idx, best_score)
    return SelectionTrace(steps)


def _score_subset(X, y, indices, k, runs, base_seed, config) -> MonteCarloResult:
    """monte_carlo on the columns of X that the 1-based indices name, each
    at most once; an empty subset scores the constant predictor that labels
    every pattern 1 (kappa 0). A NonFiniteScoreError names a column of X."""
    seen = set()
    for idx in indices:
        if not 1 <= idx <= X.shape[1]:
            raise BadIndexError(f"feature index {idx} outside 1..{X.shape[1]}")
        if idx in seen:
            raise ValueError(f"feature index {idx} repeated")
        seen.add(idx)
    if not indices:
        cm = confusion_matrix(y, np.ones_like(y), n_classes=int(y.max()))
        return MonteCarloResult(
            np.full(runs, accuracy(cm)), np.full(runs, kappa(cm)), cm * runs, k, base_seed,
            sigmas=((),) * runs,
        )
    cols = np.asarray(indices, dtype=int) - 1
    try:
        return monte_carlo(X[:, cols], y, k=k, runs=runs, base_seed=base_seed, config=config)
    except NonFiniteScoreError as exc:
        raise exc.reindexed(columns=cols) from None


def channel_relevance(
    X,
    y,
    selected,
    registry: FeatureRegistry,
    k: int = 10,
    runs: int = 10,
    base_seed: int = 0,
    config: PnnConfig = PnnConfig(),
) -> list[MonteCarloResult]:
    """Re-evaluate with each channel's selected features omitted in turn.

    For channel m, every selected feature whose descriptor involves m (pair
    features count on either endpoint) is dropped and monte_carlo reruns on
    the remainder. Returns one result per channel 1..M, where M is the
    highest channel a registry descriptor names, on its own or in a pair.

    Warns:
        ChannelUnusedWarning: omitting a channel drops nothing, so its
            result equals the full-selection run.

    If omitting a channel empties the feature set entirely, that channel is
    scored by a constant-prediction fallback (kappa 0) and a warning.

    Raises:
        BadIndexError: an index lies outside the registry, before any warning.
        ValueError: an index repeats; the first channel whose remainder
            keeps it raises.
        NonFiniteScoreError: a row has no finite class score; it names the
            row and column of X.
    """
    if len(selected) == 0:
        raise NoFeaturesError("selected feature set is empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    channels = max(max(d.pair or (d.channel,)) for d in registry)
    results = []
    for ch in range(1, channels + 1):
        kept = tuple(int(i) for i in selected if not registry[int(i)].touches_channel(ch))
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
        results.append(_score_subset(X, y, kept, k, runs, base_seed, config))
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
        NonFiniteScoreError: a row has no finite class score; it names the
            row and column of X.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if not groups:
        raise ValueError("groups must be nonempty")
    results = []
    union: set[int] = set()
    for name, indices in groups.items():
        union.update(int(idx) for idx in indices)
        if not union:
            raise NoFeaturesError(f"group {name!r} leaves no features to evaluate")
        results.append((name, _score_subset(X, y, sorted(union), k, runs, base_seed, config)))
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
    out = []
    for mod, locals_ in _SELECTED_LOCAL.items():
        block = registry.modality_indices(mod)
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
