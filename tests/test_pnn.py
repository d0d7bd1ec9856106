import numpy as np
import pytest

from emgactions.crossval import EmptyGridError, select_sigma
from emgactions.pnn import (
    DEFAULT_SIGMA_GRID,
    DimensionMismatchError,
    EmptyClassWarning,
    NonPositiveSigmaError,
    Normalizer,
    fit_pnn,
)
from ._synth import blobs


class TestNormalizer:
    def test_fit_transform_standardizes(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3, 5, (200, 4))
        norm = Normalizer.fit(X)
        Z = norm.transform(X)
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-12)
        assert np.allclose(Z.std(axis=0), 1, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        norm = Normalizer.fit(X)
        Z = norm.transform(X)
        assert np.array_equal(Z[:, 0], np.zeros(10))
        assert norm.scale[0] == 1.0

    def test_transform_single_vector(self):
        X = np.array([[0.0, 0.0], [2.0, 4.0]])
        norm = Normalizer.fit(X)
        assert np.allclose(norm.transform(np.array([1.0, 2.0])), [0.0, 0.0])


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
        assert np.array_equal(model.exemplars, model.normalizer.transform(X[order][stable]))
        assert model.priors.tolist() == pytest.approx([1 / 3, 1 / 3, 1 / 3])

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
        model = fit_pnn(X, y, sigma=1e6, priors=(0.7, 0.3))
        _, post = model.predict_batch(np.array([0.3] * X.shape[1])[None])
        assert post[0] == pytest.approx([0.7, 0.3], abs=1e-4)

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
        norm = Normalizer.fit(X)
        Z = norm.transform(X)
        Q = rng.normal(0, 1, (20, 3))
        labels, _ = model.predict_batch(Q)
        for q, got in zip(Q, labels):
            d = np.linalg.norm(Z - norm.transform(q), axis=1)
            assert got == y[np.argmin(d)]

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
