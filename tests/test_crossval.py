import numpy as np
import pytest

from emgactions.crossval import (
    MonteCarloResult,
    TooFewSamplesError,
    fold_splits,
    kfold_assignment,
    kfold_cv,
    monte_carlo,
    select_sigma,
    stratified_folds,
)
from emgactions.pnn import NonFiniteScoreError, PnnConfig
from ._synth import blobs

FIXED = PnnConfig(sigma=0.5)


class TestStratifiedFolds:
    def test_assignment_range_and_balance(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            k = int(rng.integers(2, 6))
            y = np.repeat(np.arange(1, 4), int(rng.integers(k, 4 * k)))
            assignment = stratified_folds(y, k, seed)
            assert assignment.shape == y.shape
            assert set(assignment) <= set(range(k))
            for cid in (1, 2, 3):
                counts = np.bincount(assignment[y == cid], minlength=k)
                assert counts.max() - counts.min() <= 1

    def test_deterministic_and_seed_sensitive(self):
        y = np.repeat([1, 2], 20)
        a = stratified_folds(y, 4, seed=7)
        b = stratified_folds(y, 4, seed=7)
        assert np.array_equal(a, b)
        others = [stratified_folds(y, 4, seed=s) for s in range(5)]
        assert any(not np.array_equal(a, o) for o in others)


class TestFoldSplits:
    @pytest.mark.parametrize("k, seed", [(2, 0), (3, 1), (5, 2), (10, 3)])
    def test_test_rows_partition_and_train_is_complement(self, k, seed):
        y = np.repeat(np.arange(1, 4), 12)
        assignment = kfold_assignment(y, k, seed)
        splits = fold_splits(assignment)
        assert len(splits) == k
        tests = np.concatenate([test for _, test in splits])
        assert np.array_equal(np.sort(tests), np.arange(y.size))
        for f, (train, test) in enumerate(splits):
            assert np.array_equal(test, np.flatnonzero(assignment == f))
            assert np.array_equal(train, np.flatnonzero(assignment != f))

    @pytest.mark.parametrize(
        "assignment, folds",
        [
            ([0, 0, 0], []),
            ([2, 0, 2, 0], [([0, 2], [1, 3]), ([1, 3], [0, 2])]),
            ([1, 1], []),
            ([], []),
        ],
    )
    def test_degenerate_folds_skipped(self, assignment, folds):
        # Fold 1 of [2, 0, 2, 0] tests no row; a lone fold trains on none.
        got = [(train.tolist(), test.tolist()) for train, test in fold_splits(assignment)]
        assert got == folds

    def test_inner_splits_of_a_tiny_class_skip_empty_folds(self):
        # One class-2 row and two class-1 rows in 5 folds: folds 2..4 are empty.
        assignment = stratified_folds(np.array([1, 2, 1]), 5, 0)
        splits = fold_splits(assignment)
        assert len(splits) == 2
        for train, test in splits:
            assert train.size and test.size and train.size + test.size == 3


class TestKfold:
    def test_separable_data_scores_perfectly(self):
        X, y = blobs(n_per_class=20, n_classes=3, seed=1)
        report = kfold_cv(X, y, k=10, config=FIXED, seed=0)
        assert report.alpha == 1.0
        assert report.kappa == 1.0
        assert np.array_equal(report.confusion, np.diag([20, 20, 20]))

    def test_confusion_total_counts_every_sample_once(self):
        X, y = blobs(n_per_class=9, n_classes=4, spread=2.0, seed=2)
        report = kfold_cv(X, y, k=3, config=FIXED, seed=5)
        assert report.confusion.sum() == y.size
        assert np.array_equal(report.confusion.sum(axis=1), np.full(4, 9))

    def test_deterministic(self):
        X, y = blobs(n_per_class=12, n_classes=3, spread=1.5, seed=3)
        a = kfold_cv(X, y, k=4, config=FIXED, seed=9)
        b = kfold_cv(X, y, k=4, config=FIXED, seed=9)
        assert a.alpha == b.alpha
        assert a.kappa == b.kappa
        assert np.array_equal(a.confusion, b.confusion)

    def test_unrelated_features_give_chance_kappa(self):
        y = np.repeat(np.arange(1, 21), 10)
        vals = []
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(0, 1, (y.size, 5))
            vals.append(kfold_cv(X, y, k=2, config=FIXED, seed=seed).kappa)
        assert abs(float(np.mean(vals))) < 0.05

    def test_too_few_samples(self):
        X, y = blobs(n_per_class=4, n_classes=2, seed=4)
        with pytest.raises(TooFewSamplesError, match="fewer than k=5"):
            kfold_cv(X, y, k=5, config=FIXED)

    def test_k_below_two(self):
        X, y = blobs(n_per_class=5, seed=5)
        with pytest.raises(ValueError):
            kfold_cv(X, y, k=1, config=FIXED)

    def test_sigma_grid_selection_path(self):
        X, y = blobs(n_per_class=12, n_classes=2, seed=6)
        auto = PnnConfig(sigma=None, sigma_grid=(0.2, 0.8), selection_folds=3)
        report = kfold_cv(X, y, k=3, config=auto, seed=0)
        assert report.alpha == 1.0

    @pytest.mark.parametrize("sigma", [0.5, None])
    def test_overflow_names_the_row_of_x(self, sigma):
        # Column 1 spreads 5e-161 in training. Row r is trained on in fold 0,
        # so with sigma=None the sigma search, testing it on an inner split,
        # raises first; with a fixed sigma its own test fold does.
        X, y = blobs(n_per_class=10, n_classes=2, dim=2, seed=30)
        X[:, 1] = np.resize([0.0, 1e-160], y.size)
        r = int(np.flatnonzero(kfold_assignment(y, 4, 2) != 0)[-1])
        X[r, 1] = 1e-3
        with pytest.raises(NonFiniteScoreError) as info:
            kfold_cv(X, y, k=4, config=PnnConfig(sigma=sigma), seed=2)
        assert (info.value.row, info.value.column) == (r, 1)
        with pytest.raises(NonFiniteScoreError) as info:
            select_sigma(X, y)
        assert (info.value.row, info.value.column) == (r, 1)


class TestMonteCarlo:
    def test_single_run_matches_kfold(self):
        X, y = blobs(n_per_class=10, n_classes=3, spread=1.2, seed=7)
        mc = monte_carlo(X, y, k=5, runs=1, base_seed=42, config=FIXED)
        single = kfold_cv(X, y, k=5, config=FIXED, seed=42)
        assert mc.runs == 1
        assert mc.alphas[0] == single.alpha
        assert mc.kappas[0] == single.kappa
        assert np.array_equal(mc.confusion, single.confusion)

    def test_runs_use_consecutive_seeds(self):
        X, y = blobs(n_per_class=10, n_classes=3, spread=1.5, seed=8)
        mc = monte_carlo(X, y, k=5, runs=3, base_seed=11, config=FIXED)
        expected = [kfold_cv(X, y, k=5, config=FIXED, seed=11 + r).alpha for r in range(3)]
        assert mc.alphas.tolist() == expected
        assert mc.confusion.sum() == 3 * y.size

    def test_separable_data_zero_spread(self):
        X, y = blobs(n_per_class=15, n_classes=2, seed=9)
        mc = monte_carlo(X, y, k=5, runs=4, base_seed=0, config=FIXED)
        assert mc.mean_alpha == 1.0
        assert mc.std_alpha == 0.0
        assert mc.std_kappa == 0.0

    def test_std_shrinks_with_more_data(self):
        small = blobs(n_per_class=20, n_classes=2, dim=3, spread=1.0, separation=2.0, seed=10)
        large = blobs(n_per_class=160, n_classes=2, dim=3, spread=1.0, separation=2.0, seed=10)
        mc_small = monte_carlo(*small, k=4, runs=15, base_seed=0, config=FIXED)
        mc_large = monte_carlo(*large, k=4, runs=15, base_seed=0, config=FIXED)
        assert mc_small.std_kappa > mc_large.std_kappa

    def test_population_std_convention(self):
        mc = MonteCarloResult(
            alphas=[0.5, 1.0],
            kappas=[0.0, 1.0],
            confusion=np.eye(2, dtype=int),
            folds=2,
            base_seed=0,
        )
        assert mc.mean_alpha == 0.75
        assert mc.std_alpha == 0.25  # ddof=0
        assert mc.std_kappa == 0.5

    def test_runs_below_one(self):
        X, y = blobs(n_per_class=5, seed=11)
        with pytest.raises(ValueError):
            monte_carlo(X, y, k=2, runs=0, config=FIXED)
