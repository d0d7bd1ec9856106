import pickle
import warnings

import numpy as np
import pytest

from emgactions import crossval
from emgactions.crossval import EmptyGridError, select_sigma, stratified_folds
from emgactions.pnn import (
    DEFAULT_SIGMA_GRID,
    LOG_ZERO,
    DimensionMismatchError,
    EmptyClassWarning,
    NonFiniteScoreError,
    NonPositiveSigmaError,
    PnnModel,
    classify_distances,
    fit_pnn,
)
from ._synth import blobs


class TestNormalizer:
    """fit_pnn's z-scoring: statistics from the training rows only."""

    def test_fit_transform_standardizes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3, 5, (200, 4))
        Z = fit_pnn(X, np.ones(200, dtype=int), sigma=0.5).exemplars
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        # The 0.1 column's std is a rounding residue of about 1e-17, not 0.
        X = np.column_stack([np.full(10, 7.0), np.full(10, 0.1), np.arange(10.0)])
        model = fit_pnn(X, np.ones(10, dtype=int), sigma=0.5)
        assert np.array_equal(model.exemplars[:, 0], np.zeros(10))
        assert np.abs(model.exemplars[:, 1]).max() < 1e-15
        assert model.scale[:2].tolist() == [1.0, 1.0]

    def test_underflowing_spread_keeps_scale_1(self):
        # {0, 1e-170} is not constant, but its squared deviations underflow.
        X = np.column_stack([np.resize([0.0, 1e-170], 10), np.arange(10.0)])
        model = fit_pnn(X, np.ones(10, dtype=int), sigma=0.5)
        assert model.scale[0] == 1.0
        assert np.isfinite(model.exemplars).all()

    def test_transform_single_vector(self):
        X = np.array([[0.0, 0.0], [2.0, 4.0]])
        model = fit_pnn(X, np.array([1, 2]), sigma=0.5)
        assert np.allclose((np.array([1.0, 2.0]) - model.mean) / model.scale, [0.0, 0.0])


class TestFit:
    def test_exemplars_grouped_by_class(self):
        X, y = blobs(n_per_class=5, n_classes=3, seed=1)
        order = np.random.default_rng(1).permutation(y.size)
        model = fit_pnn(X[order], y[order], sigma=0.5)
        assert model.n_classes == 3
        assert model.class_ids.tolist() == [1, 2, 3]
        assert model.counts.tolist() == [5, 5, 5]
        # class-sorted, each class keeping its training order
        stable = np.argsort(y[order], kind="stable")
        assert np.array_equal(model.exemplars, (X[order][stable] - model.mean) / model.scale)
        assert model.sigma == 0.5

    def test_nonpositive_sigma_rejected(self):
        X, y = blobs(n_per_class=3, seed=0)
        for bad in (0.0, -1.0):
            with pytest.raises(NonPositiveSigmaError):
                fit_pnn(X, y, sigma=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, bad):
        # Either width labels every query with class 1 instead of failing.
        X, y = blobs(n_per_class=3, seed=0)
        with pytest.raises(NonPositiveSigmaError, match=f"sigma must be finite and > 0, got {bad}"):
            fit_pnn(X, y, sigma=bad)

    def test_missing_class_warns(self):
        X = np.array([[0.0], [0.1], [5.0], [5.1]])
        y = np.array([1, 1, 3, 3])
        with pytest.warns(EmptyClassWarning):
            model = fit_pnn(X, y, sigma=0.5, n_classes=3)
        assert model.class_ids.tolist() == [1, 3]  # class 2 has no exemplars
        assert model.n_classes == 3
        assert model.counts.tolist() == [2, 2]
        labels, post = model.predict_batch(np.array([0.05])[None])
        assert labels.tolist() == [1]
        assert post.shape == (1, 3)
        assert post[0, 1] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_pnn(np.zeros((4, 2)), np.array([1, 2, 1]), sigma=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_value_rejected(self, bad):
        X, y = blobs(n_per_class=4, dim=3, seed=18)
        X[5, 2] = bad
        X[6, 0] = np.nan
        with pytest.raises(ValueError, match=rf"training row 5 column 2 is {bad!r}"):
            fit_pnn(X, y, sigma=0.5)


class TestPredict:
    def test_exemplar_queries_recover_labels(self):
        X, y = blobs(n_per_class=10, n_classes=4, dim=3, seed=2)
        model = fit_pnn(X, y, sigma=0.1)
        labels, posteriors = model.predict_batch(X)
        assert np.array_equal(labels, y)
        assert np.allclose(posteriors.sum(axis=1), 1.0)

    def test_posteriors_sum_to_one(self):
        X, y = blobs(n_per_class=8, n_classes=3, dim=4, seed=3)
        model = fit_pnn(X, y, sigma=0.7)
        rng = np.random.default_rng(4)
        Q = rng.normal(0, 2, (50, 4))
        labels, posteriors = model.predict_batch(Q)
        assert np.allclose(posteriors.sum(axis=1), 1.0)
        assert np.all(posteriors >= 0)
        assert np.array_equal(labels, np.argmax(posteriors, axis=1) + 1)

    def test_equidistant_tie_takes_smaller_class(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([1, 2])
        model = fit_pnn(X, y, sigma=0.5)
        labels, post = model.predict_batch(np.array([0.0])[None])
        assert labels.tolist() == [1]
        assert post[0] == pytest.approx([0.5, 0.5])

    def test_huge_sigma_recovers_priors(self):
        X, y = blobs(n_per_class=6, n_classes=2, seed=5)
        model = fit_pnn(X, y, sigma=1e6)
        _, post = model.predict_batch(np.array([0.3] * X.shape[1])[None])
        assert post[0] == pytest.approx([0.5, 0.5], abs=1e-4)

    def test_duplicating_exemplars_changes_nothing(self):
        X, y = blobs(n_per_class=7, n_classes=3, dim=2, seed=6)
        Xd = np.vstack([X, X])
        yd = np.concatenate([y, y])
        a = fit_pnn(X, y, sigma=0.4)
        b = fit_pnn(Xd, yd, sigma=0.4)
        rng = np.random.default_rng(7)
        Q = rng.normal(0, 2, (30, 2))
        la, pa = a.predict_batch(Q)
        lb, pb = b.predict_batch(Q)
        assert np.array_equal(la, lb)
        assert np.allclose(pa, pb)

    def test_tiny_sigma_matches_nearest_exemplar(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, (30, 3))
        y = rng.integers(1, 4, 30)
        y[:3] = [1, 2, 3]  # every class present
        model = fit_pnn(X, y, sigma=1e-3)
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        Q = rng.normal(0, 1, (20, 3))
        labels, _ = model.predict_batch(Q)
        for q, got in zip(Q, labels):
            d = np.linalg.norm(Z - (q - X.mean(axis=0)) / X.std(axis=0), axis=1)
            assert got == y[np.argmin(d)]

    def test_constant_column_moves_no_label(self):
        # Were the 0.1 column scaled by its 1e-17 rounding residue, a query's
        # 0.2 or 0.0 there would swamp column 1 and label it class 1.
        y = np.repeat([1, 2, 3], 3)
        X = np.column_stack([np.full(9, 0.1), y + np.random.default_rng(0).normal(0, 0.1, 9)])
        model = fit_pnn(X, y, sigma=0.5)
        labels, _ = model.predict_batch(np.array([[0.1, 3.0], [0.2, 3.0], [0.0, 3.0]]))
        assert labels.tolist() == [3, 3, 3]

    def test_far_query_keeps_valid_posterior(self):
        X, y = blobs(n_per_class=5, n_classes=2, dim=2, seed=9)
        model = fit_pnn(X, y, sigma=0.05)
        labels, post = model.predict_batch(np.array([1e9, -1e9])[None])
        assert labels[0] in (1, 2)
        assert post[0].sum() == pytest.approx(1.0)

    def test_dimension_mismatch_on_predict(self):
        X, y = blobs(n_per_class=4, dim=3, seed=10)
        model = fit_pnn(X, y, sigma=0.5)
        with pytest.raises(DimensionMismatchError):
            model.predict_batch(np.zeros(2)[None])
        with pytest.raises(DimensionMismatchError):
            model.predict_batch(np.zeros((5, 4)))

    def test_tiny_training_spread_fails_loudly(self):
        # std 5e-161 is not 0, so the column keeps its spread, and a query
        # 2e157 spreads away has infinite distances to every exemplar.
        X = np.array([[0.0, 0.0], [1e-160, 1.0], [0.0, 2.0], [1e-160, 3.0]])
        y = np.array([1, 1, 2, 2])
        model = fit_pnn(X, y, sigma=0.5)
        assert model.scale[0] == pytest.approx(5e-161)
        Q = np.array([[0.0, 1.0], [1e-3, 1.0], [1e-3, 2.0]])
        with pytest.raises(
            NonFiniteScoreError,
            match=r"^query row 1 has no finite class score: column 0 lies 2e\+157 ",
        ) as info:
            model.predict_batch(Q)
        assert info.value.row == 1

    @pytest.mark.parametrize("column", [None, 2])
    def test_error_survives_pickling(self, column):
        error = NonFiniteScoreError(3, column, 2e157)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is NonFiniteScoreError
        assert str(copy) == str(error)
        assert (copy.row, copy.column, copy.spread) == (3, column, 2e157)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        X, y = blobs(n_per_class=4, dim=3, seed=19)
        model = fit_pnn(X, y, sigma=0.5)
        Q = np.zeros((4, 3))
        Q[2, 1] = bad
        Q[3, 0] = bad
        with pytest.raises(ValueError, match=rf"query row 2 column 1 is {bad!r}"):
            model.predict_batch(Q)


class TestSigmaSelection:
    def test_singleton_grid(self):
        X, y = blobs(n_per_class=10, seed=11)
        assert select_sigma(X, y, (0.3,)) == 0.3

    def test_tie_prefers_smaller_sigma(self):
        X, y = blobs(n_per_class=15, n_classes=2, separation=6.0, spread=0.1, seed=12)
        assert select_sigma(X, y, (0.5, 1.0)) == 0.5
        assert select_sigma(X, y, (1.0, 0.5)) == 0.5  # order independent

    def test_empty_grid(self):
        X, y = blobs(n_per_class=5, seed=13)
        with pytest.raises(EmptyGridError):
            select_sigma(X, y, ())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_bad_grid_entry_rejected(self, bad):
        X, y = blobs(n_per_class=10, seed=11)
        with pytest.raises(NonPositiveSigmaError):
            select_sigma(X, y, (0.3, bad))

    def test_default_grid_is_ascending(self):
        assert list(DEFAULT_SIGMA_GRID) == sorted(DEFAULT_SIGMA_GRID)
        assert all(s > 0 for s in DEFAULT_SIGMA_GRID)

    def test_deterministic(self):
        X, y = blobs(n_per_class=12, n_classes=3, spread=1.5, seed=14)
        picks = {select_sigma(X, y, DEFAULT_SIGMA_GRID, folds=4, seed=3) for _ in range(3)}
        assert len(picks) == 1


def plain_exp_kernel(d2, sigma, counts, class_ids, priors, n_classes):
    """classify_distances as it was before the underflow mask: np.exp on every
    exponent, and a uniform posterior where no score is positive."""
    k = d2.copy()
    k *= -1.0 / (2.0 * sigma * sigma)
    k -= k.max(axis=1, keepdims=True)
    np.exp(k, out=k)
    starts = np.cumsum(counts) - counts
    kernel_mean = np.add.reduceat(k, starts, axis=1) / counts
    n = k.shape[0]
    scores = np.zeros((n, n_classes))
    cols = class_ids - 1
    scores[:, cols] = priors[cols] * kernel_mean
    totals = scores.sum(axis=1)
    posteriors = np.full((n, n_classes), 1.0 / n_classes)
    ok = totals > 0.0
    posteriors[ok] = scores[ok] / totals[ok, np.newaxis]
    labels = np.where(ok, np.argmax(scores, axis=1) + 1, 1)
    return labels.astype(int), posteriors


def exp_bands(d2, sigma):
    """Counts of exponents whose exp is normal, subnormal and exactly 0."""
    k = d2 * (-1.0 / (2.0 * sigma * sigma))
    e = np.exp(k - k.max(axis=1, keepdims=True))
    tiny = np.finfo(float).tiny
    return np.array([np.sum(e >= tiny), np.sum((e > 0.0) & (e < tiny)), np.sum(e == 0.0)])


class TestUnderflowMask:
    def test_log_zero_is_exact_zero(self):
        assert np.exp(LOG_ZERO) == 0.0
        below = np.concatenate([
            np.nextafter(LOG_ZERO, -np.inf, dtype=float)[None],
            np.linspace(LOG_ZERO, -800.0, 1001),
            -np.logspace(np.log10(800.0), 300, 200),
            [-np.inf],
        ])
        out = np.exp(below)
        assert np.all(out == 0.0)
        assert not np.any(np.signbit(out))
        # The subnormal band right above LOG_ZERO is left to np.exp.
        assert 0.0 < np.exp(-745.13) < np.finfo(float).tiny

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_plain_exp(self, seed):
        # Each class sits at its own random distance from each query, so
        # some classes score only through subnormal or zero kernel values.
        rng = np.random.default_rng(seed)
        n_classes = 5
        y = np.sort(np.concatenate([[1, 2, 4], rng.integers(1, n_classes + 1, 237)]))
        class_ids = np.unique(y)
        counts = np.bincount(y)[class_ids]
        priors = np.full(n_classes, 1.0 / n_classes)
        offsets = rng.uniform(0.0, 40.0, (60, n_classes + 1))
        d2 = offsets[:, y] + rng.uniform(0.0, 0.5, (60, y.size))
        bands = np.zeros(3, dtype=int)
        subnormal_posteriors = 0
        tiny = np.finfo(float).tiny
        for sigma in DEFAULT_SIGMA_GRID:
            bands += exp_bands(d2, sigma)
            want = plain_exp_kernel(d2, sigma, counts, class_ids, priors, n_classes)
            got = classify_distances(d2.copy(), sigma, counts, class_ids, n_classes)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            subnormal_posteriors += int(np.sum((want[1] > 0.0) & (want[1] < tiny)))
        assert np.all(bands > 0), bands  # normal, subnormal and zero all occur
        assert subnormal_posteriors > 0

    def test_unsampled_underflow_gives_same_bits(self):
        # One underflowing exponent that the strided sample does not see:
        # the unmasked path must agree with the masked one bit for bit.
        d2 = np.full((6, 130), 0.5)
        d2[:, 0] = 0.0
        d2[1, 65] = 1e4
        counts, class_ids = np.array([65, 65]), np.array([1, 2])
        priors = np.array([0.5, 0.5])
        for rows in (slice(None), [1, 1, 1, 1]):
            want = plain_exp_kernel(d2[rows], 0.05, counts, class_ids, priors, 2)
            got = classify_distances(d2[rows].copy(), 0.05, counts, class_ids, 2)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[1][0, 1] > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row", [1, 2])
    def test_non_finite_row_raises(self, row):
        d2 = np.ones((4, 6))
        d2[0, 3] = np.inf  # one infinite distance leaves the row a finite score
        d2[2] = np.inf
        if row == 1:
            d2[1, 4] = np.nan
        counts, class_ids = np.array([3, 3]), np.array([1, 2])
        with pytest.raises(NonFiniteScoreError, match=f"^query row {row} has no finite") as info:
            classify_distances(d2, 0.3, counts, class_ids, 2)
        assert info.value.row == row


def refit_per_sigma(X, y, grid, folds, seed):
    """select_sigma as it was: one fit per (sigma, inner split)."""
    grid = sorted(grid)
    assignment = stratified_folds(y, folds, seed)
    best_sigma, best_score = grid[0], -1.0
    for sigma in grid:
        correct = total = 0
        for f in range(folds):
            test = assignment == f
            if not np.any(test) or np.all(test):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptyClassWarning)
                model = fit_pnn(X[~test], y[~test], sigma, n_classes=int(y.max()))
            labels, _ = model.predict_batch(X[test])
            correct += int(np.sum(labels == y[test]))
            total += int(np.sum(test))
        score = correct / total if total else 0.0
        if score > best_score:
            best_score, best_sigma = score, sigma
    return best_sigma


def sigma_cases():
    tie = blobs(n_per_class=15, n_classes=2, separation=6.0, spread=0.1, seed=12)
    yield "grid tie", tie[0], tie[1], 5
    for seed in (14, 15, 16):
        X, y = blobs(n_per_class=12, n_classes=3, dim=4, spread=1.5, separation=1.0, seed=seed)
        yield f"overlap {seed}", X, y, 4
    X, y = blobs(n_per_class=8, n_classes=3, dim=3, spread=1.2, separation=1.0, seed=17)
    keep = np.concatenate([np.flatnonzero(y != 3), np.flatnonzero(y == 3)[:1]])
    yield "class in one split only", X[keep], y[keep], 5
    firsts = [np.flatnonzero(y == c)[0] for c in (1, 2, 3)]
    yield "empty splits", X[firsts], y[firsts], 5


class TestSigmaSelectionFits:
    @pytest.mark.parametrize("case", list(sigma_cases()), ids=lambda c: c[0])
    def test_one_fit_per_inner_split(self, case, monkeypatch):
        _, X, y, folds = case
        assignment = stratified_folds(y, folds, 0)
        sizes = np.bincount(assignment, minlength=folds)
        splits = int(np.sum((sizes > 0) & (sizes < y.size)))
        want = refit_per_sigma(X, y, DEFAULT_SIGMA_GRID, folds, 0)
        calls = {"fit": 0, "predict": 0}
        real_fit, real_predict = crossval.fit_pnn, PnnModel.predict_batch

        def counting_fit(*args, **kwargs):
            calls["fit"] += 1
            return real_fit(*args, **kwargs)

        def counting_predict(*args, **kwargs):
            calls["predict"] += 1
            return real_predict(*args, **kwargs)

        monkeypatch.setattr(crossval, "fit_pnn", counting_fit)
        monkeypatch.setattr(PnnModel, "predict_batch", counting_predict)
        with warnings.catch_warnings():
            warnings.simplefilter("error", EmptyClassWarning)  # silenced inside
            got = select_sigma(X, y, DEFAULT_SIGMA_GRID, folds=folds, seed=0)
        assert got == want
        assert calls == {"fit": splits, "predict": splits * len(DEFAULT_SIGMA_GRID)}

    def test_tie_case_ties(self):
        _, X, y, folds = next(sigma_cases())
        assert select_sigma(X, y, DEFAULT_SIGMA_GRID, folds=folds) == DEFAULT_SIGMA_GRID[0]
