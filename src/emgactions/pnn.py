"""Probabilistic neural network: Parzen-window kernel density classifier.

The model memorizes every (z-scored) training vector. A class score is the
prior times the average Gaussian kernel response of that class's exemplars;
the predicted label is the arg max, with ties broken toward the smallest
class id. There is no iterative training, so model size grows linearly with
the training set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_SIGMA_GRID = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 1.5)

# np.exp(x) is exactly +0.0 for every x <= -745.1332, yet numpy's vector exp
# spends about 20 times its normal cost per element on such inputs.
LOG_ZERO = -746.0


class NonPositiveSigmaError(ValueError):
    """Kernel width must be finite and strictly positive."""


class DimensionMismatchError(ValueError):
    """Input dimension differs from the model's feature dimension."""


class NonFiniteScoreError(ValueError):
    """A query's class scores are not finite, so it has no label.

    Attributes:
        row: the query's row in the matrix the raising call was given.
        column: the column whose normalized value lies farthest from its
            training mean, or None where only distances were given.
        spread: that normalized value, in training standard deviations.
    """

    def __init__(self, row: int, column: int | None = None, spread: float = 0.0):
        self.row = row
        self.column = column
        self.spread = spread
        detail = ""
        if column is not None:
            detail = (
                f": column {column} lies {spread:.3g} training standard deviations "
                "from its mean, so its squared distances overflow"
            )
        super().__init__(f"query row {row} has no finite class score{detail}")

    def __reduce__(self):
        # The default would rebuild the error from its message alone.
        return type(self), (self.row, self.column, self.spread)

    def reindexed(self, rows=None, columns=None) -> "NonFiniteScoreError":
        """This error with its row looked up in rows and its column in columns.

        A caller that passed X[rows] or X[:, columns] on re-raises the
        result, so the error names a row and column of X.
        """
        row = self.row if rows is None else int(rows[self.row])
        column = self.column
        if columns is not None and column is not None:
            column = int(columns[column])
        return NonFiniteScoreError(row, column, self.spread)


def overflow_error(row: int, z) -> NonFiniteScoreError:
    """The error for query row whose normalized values are z, naming the
    column that lies farthest from its training mean."""
    column = int(np.argmax(np.abs(z)))
    return NonFiniteScoreError(row, column, float(z[column]))


class EmptyClassWarning(UserWarning):
    """A label in 1..C has no training exemplar; it can never be predicted."""


@dataclass(frozen=True)
class PnnConfig:
    """How to train the classifier inside an evaluation fold.

    sigma fixes the kernel width; when it is None the width is chosen from
    sigma_grid by internal cross-validation on the training split.
    """

    sigma: float | None = None
    sigma_grid: tuple = DEFAULT_SIGMA_GRID
    selection_folds: int = 5
    selection_seed: int = 0


@dataclass
class PnnModel:
    """Fitted classifier state.

    Attributes:
        mean: (D,) training-split column means.
        scale: (D,) training-split column standard deviations; 1 where a
            column is constant or its deviation underflows to 0, so a
            query's value there moves every distance alike.
        exemplars: (N, D) normalized training vectors, stably sorted by label,
            so each class's rows are contiguous and keep their training order.
        class_ids: ascending class ids that have exemplars.
        counts: exemplar count per entry of class_ids.
        sigma: Gaussian kernel width, finite and > 0.
        n_classes: label range size C.
    """

    mean: np.ndarray
    scale: np.ndarray
    exemplars: np.ndarray
    class_ids: np.ndarray
    counts: np.ndarray
    sigma: float
    n_classes: int

    @property
    def n_features(self) -> int:
        return self.mean.size

    def predict_batch(self, X):
        """Classify rows of X; returns (labels (n,), posteriors (n, C)).

        Squared distances ||x - x_i||^2 on normalized coordinates are
        expanded as |x|^2 + |x_i|^2 - 2 x.x_i, clamped at 0 and scored by
        classify_distances.

        Raises:
            DimensionMismatchError: X is not (n, n_features).
            ValueError: X holds a NaN or infinite value.
            NonFiniteScoreError: a row's squared distances overflow, as a
                value far outside a column's tiny training spread makes
                them; the message names the row and that column.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"expected {self.n_features} features, got shape {X.shape}"
            )
        require_finite(X, "query")
        # NonFiniteScoreError reports an overflow; numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            Xn = (X - self.mean) / self.scale
            E = self.exemplars
            # Every step works in place on the one (n, N) buffer: a temporary
            # per step pushes it out of cache and costs more than the arithmetic.
            k = Xn @ E.T
            k *= -2.0
            k += np.sum(Xn * Xn, axis=1)[:, np.newaxis]
            k += np.sum(E * E, axis=1)
            np.maximum(k, 0.0, out=k)
            try:
                return classify_distances(
                    k, self.sigma, self.counts, self.class_ids, self.n_classes
                )
            except NonFiniteScoreError as exc:
                raise overflow_error(exc.row, Xn[exc.row]) from None


def classify_distances(d2, sigma, counts, class_ids, n_classes):
    """Label queries from their squared distances to class-sorted exemplars.

    The one classification kernel behind PnnModel.predict_batch and the SFS
    criterion. Scores are (1 / C) * mean_i exp(-d2_i / (2 sigma^2)) over the
    exemplars of class c. Exponents are shifted by their per-row maximum
    before exponentiation; the common factor cancels in the normalization,
    so posteriors are unchanged while tiny sigmas stay clear of underflow:
    the nearest exemplar scores exp(0) = 1, so a row of finite distances
    always has a positive total. np.exp is not called on exponents below
    LOG_ZERO; their kernel values are set to the +0.0 it would return, so
    no output bit changes.

    Args:
        d2: (n, N) squared distances on normalized coordinates, columns in
            exemplar order; overwritten.
        sigma: kernel width.
        counts: exemplar count per entry of class_ids, in column order.
        class_ids: ascending class ids that have exemplars.
        n_classes: label range size C.

    Returns:
        (labels (n,), posteriors (n, C)).

    Raises:
        NonFiniteScoreError: a row of d2 holds no finite value, or a NaN.
    """
    # Every step works in place on the one (n, N) buffer: a temporary per
    # step pushes it out of cache and costs more than the arithmetic.
    k = d2
    k *= -1.0 / (2.0 * sigma * sigma)
    # A row of infinite or NaN distances shifts to NaN; the error below
    # reports it, so numpy need not warn first.
    with np.errstate(invalid="ignore"):
        k -= k.max(axis=1, keepdims=True)
    # A strided sample decides whether the mask is worth its two passes; it
    # changes only the speed, since masked and unmasked give the same bits.
    if k[::4, ::64].min(initial=0.0) < LOG_ZERO:
        zero = k < LOG_ZERO
        np.putmask(k, zero, 0.0)
        np.exp(k, out=k)
        np.putmask(k, zero, 0.0)
    else:
        np.exp(k, out=k)
    starts = np.cumsum(counts) - counts
    kernel_mean = np.add.reduceat(k, starts, axis=1) / counts
    n = k.shape[0]
    scores = np.zeros((n, n_classes))
    scores[:, class_ids - 1] = kernel_mean * (1.0 / n_classes)
    totals = scores.sum(axis=1)
    bad = ~(totals > 0.0)
    if bad.any():
        raise NonFiniteScoreError(int(np.argmax(bad)))
    posteriors = scores / totals[:, np.newaxis]
    return np.argmax(scores, axis=1) + 1, posteriors


def check_sigma(sigma) -> float:
    """Return sigma as a float.

    Raises:
        NonPositiveSigmaError: sigma is NaN, infinite or <= 0. Such a width
            would label every query with the smallest class id.
    """
    sigma = float(sigma)
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise NonPositiveSigmaError(f"sigma must be finite and > 0, got {sigma}")
    return sigma


def require_finite(X: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first NaN or infinite cell of X as
    `<what> row <r> column <c>`, or that X is not 2-d."""
    if X.ndim != 2:
        raise ValueError(f"{what} must be a 2-d matrix, got shape {X.shape}")
    finite = np.isfinite(X)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"{what} row {r} column {c} is {float(X[r, c])!r}; values must be finite")


def fit_pnn(X, y, sigma: float, n_classes: int | None = None, warn: bool = True) -> PnnModel:
    """Store normalized exemplars sorted by class.

    Args:
        X: (P, D) training matrix, nonempty and finite.
        y: labels in 1..C.
        sigma: kernel width, finite and > 0.
        n_classes: C; default max(y).
        warn: whether a class without exemplars warns.

    Raises:
        NonPositiveSigmaError: sigma is not finite and > 0.
        ValueError: X holds a NaN or infinite value, or the shapes or
            labels are invalid.

    Warns:
        EmptyClassWarning: a label in 1..C has no exemplar, unless warn is
            false.
    """
    X = np.asarray(X, dtype=float)
    order, fitted = fit_statistics(X, y, n_classes, warn)
    sigma = check_sigma(sigma)
    return PnnModel(exemplars=(X[order] - fitted["mean"]) / fitted["scale"], sigma=sigma, **fitted)


def fit_statistics(X, y, n_classes: int | None = None, warn: bool = True):
    """fit_pnn's checks of X and y, warnings and fitted state but exemplars and sigma.

    Returns (order, fitted): the stable class-sorted order of the rows of X,
    and every other PnnModel field by name.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("training matrix must be 2-d and nonempty")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y lengths differ")
    require_finite(X, "training")
    if np.any(y < 1):
        raise ValueError("labels must be >= 1")
    C = int(n_classes) if n_classes is not None else int(y.max())
    if y.max() > C:
        raise ValueError(f"label {y.max()} exceeds n_classes={C}")
    per_class = np.bincount(y, minlength=C + 1)[1:]
    missing = (np.flatnonzero(per_class == 0) + 1).tolist()
    if missing and warn:
        warnings.warn(
            f"classes without exemplars can never be predicted: {missing}",
            EmptyClassWarning,
            stacklevel=3,
        )
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    # A constant column's std can be a rounding residue such as 1e-15, and
    # one whose squared deviations underflow has std 0; dividing by either
    # would blow a query's slightest offset there up.
    scale = np.where((X.max(axis=0) == X.min(axis=0)) | (std == 0.0), 1.0, std)
    class_ids = np.flatnonzero(per_class) + 1
    return np.argsort(y, kind="stable"), dict(
        mean=mean,
        scale=scale,
        class_ids=class_ids,
        counts=per_class[class_ids - 1],
        n_classes=C,
    )
