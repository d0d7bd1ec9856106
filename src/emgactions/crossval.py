"""Stratified k-fold cross-validation with Monte-Carlo repetition."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from emgactions.metrics import accuracy, confusion_matrix, kappa
from emgactions.pnn import DEFAULT_SIGMA_GRID, EmptyClassWarning, PnnConfig, check_sigma, fit_pnn


class TooFewSamplesError(ValueError):
    """Every class needs at least k samples for stratified k-fold CV."""


class EmptyGridError(ValueError):
    """Sigma selection needs a nonempty candidate grid."""


@dataclass
class EvalReport:
    """Pooled result of one cross-validated run.

    alpha is exactly trace/total of the pooled confusion matrix; every
    pattern is tested exactly once, so the matrix total equals the sample
    count.
    """

    confusion: np.ndarray
    alpha: float
    kappa: float
    folds: int

    def __post_init__(self):
        self.confusion = np.asarray(self.confusion, dtype=int)


@dataclass
class MonteCarloResult:
    """Per-run metrics plus the summed confusion matrix."""

    alphas: np.ndarray
    kappas: np.ndarray
    confusion: np.ndarray
    folds: int
    base_seed: int

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.kappas = np.asarray(self.kappas, dtype=float)
        self.confusion = np.asarray(self.confusion, dtype=int)

    @property
    def runs(self) -> int:
        return self.alphas.size

    @property
    def mean_alpha(self) -> float:
        return float(self.alphas.mean())

    @property
    def std_alpha(self) -> float:
        return float(self.alphas.std())

    @property
    def mean_kappa(self) -> float:
        return float(self.kappas.mean())

    @property
    def std_kappa(self) -> float:
        return float(self.kappas.std())


def stratified_folds(y, k: int, seed: int) -> np.ndarray:
    """Assign each sample a fold id in 0..k-1.

    Samples are shuffled by the seed, then each class is dealt round-robin
    across folds, so per-class fold counts differ by at most one.
    """
    y = np.asarray(y, dtype=int)
    rng = np.random.default_rng(seed)
    order = rng.permutation(y.size)
    assignment = np.empty(y.size, dtype=int)
    for cid in np.unique(y):
        members = order[y[order] == cid]
        assignment[members] = np.arange(members.size) % k
    return assignment


def kfold_assignment(y, k: int, seed: int) -> np.ndarray:
    """stratified_folds for a k-fold evaluation, which tests every sample once.

    Raises:
        ValueError: k < 2.
        TooFewSamplesError: some class has fewer than k samples, so some
            fold would lack it.
    """
    y = np.asarray(y, dtype=int)
    if k < 2:
        raise ValueError("k must be >= 2")
    ids, counts = np.unique(y, return_counts=True)
    if counts.min() < k:
        lacking = ids[counts.argmin()]
        raise TooFewSamplesError(
            f"class {lacking} has {counts.min()} samples, fewer than k={k}"
        )
    return stratified_folds(y, k, seed)


def select_sigma(X, y, grid=DEFAULT_SIGMA_GRID, folds: int = 5, seed: int = 0) -> float:
    """Pick the kernel width maximizing internal cross-validated accuracy.

    Candidates are tried in ascending order and only strict improvements are
    kept, so ties resolve toward the smallest sigma. Runs entirely on the
    given data; callers pass their training split only. Each inner split is
    fitted once: the fitted state does not depend on sigma, so every
    candidate reuses it.

    Raises:
        EmptyGridError: no candidates.
        NonPositiveSigmaError: a candidate is not finite and > 0.
    """
    grid = sorted(check_sigma(s) for s in grid)
    if not grid:
        raise EmptyGridError("sigma grid is empty")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    assignment = stratified_folds(y, folds, seed)
    correct = [0] * len(grid)
    total = 0
    for f in range(folds):
        test = assignment == f
        if not np.any(test) or np.all(test):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyClassWarning)
            model = fit_pnn(X[~test], y[~test], grid[0], n_classes=int(y.max()))
        X_test, y_test = X[test], y[test]
        for i, sigma in enumerate(grid):
            labels, _ = replace(model, sigma=sigma).predict_batch(X_test)
            correct[i] += int(np.count_nonzero(labels == y_test))
        total += y_test.size
    best_sigma = grid[0]
    best_score = -1.0
    for sigma, hits in zip(grid, correct):
        score = hits / total if total else 0.0
        if score > best_score:
            best_score = score
            best_sigma = sigma
    return best_sigma


def kfold_cv(
    X,
    y,
    k: int = 10,
    config: PnnConfig = PnnConfig(),
    seed: int = 0,
    n_classes: int | None = None,
) -> EvalReport:
    """Stratified k-fold evaluation pooling one confusion matrix.

    The fold split is seeded and deterministic: the same arguments always
    produce the same report. Normalization and any sigma selection happen
    inside each training fold only.

    Raises:
        TooFewSamplesError: some class has fewer than k samples.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    assignment = kfold_assignment(y, k, seed)
    C = int(n_classes) if n_classes is not None else int(y.max())
    cm = np.zeros((C, C), dtype=int)
    for f in range(k):
        test = assignment == f
        X_train, y_train = X[~test], y[~test]
        sigma = config.sigma
        if sigma is None:
            sigma = select_sigma(
                X_train,
                y_train,
                config.sigma_grid,
                folds=config.selection_folds,
                seed=config.selection_seed,
            )
        model = fit_pnn(X_train, y_train, sigma, n_classes=C)
        labels, _ = model.predict_batch(X[test])
        cm += confusion_matrix(y[test], labels, n_classes=C)
    return EvalReport(
        confusion=cm,
        alpha=accuracy(cm),
        kappa=kappa(cm),
        folds=k,
    )


def monte_carlo(
    X,
    y,
    k: int = 10,
    runs: int = 10,
    base_seed: int = 0,
    config: PnnConfig = PnnConfig(),
    n_classes: int | None = None,
) -> MonteCarloResult:
    """Repeat kfold_cv with seeds base_seed..base_seed+runs-1.

    Returns per-run alpha/kappa (population standard deviation over runs)
    and the confusion matrix summed across runs.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    alphas = np.empty(runs)
    kappas = np.empty(runs)
    confusion = None
    for r in range(runs):
        report = kfold_cv(X, y, k=k, config=config, seed=base_seed + r, n_classes=n_classes)
        alphas[r] = report.alpha
        kappas[r] = report.kappa
        confusion = report.confusion if confusion is None else confusion + report.confusion
    return MonteCarloResult(
        alphas=alphas,
        kappas=kappas,
        confusion=confusion,
        folds=k,
        base_seed=base_seed,
    )
