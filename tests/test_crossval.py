import os
import signal
import warnings

import numpy as np
import pytest

from emgactions import crossval
from emgactions.crossval import (
    EmptyGridError,
    MonteCarloResult,
    TooFewSamplesError,
    fold_splits,
    kfold_assignment,
    kfold_cv,
    monte_carlo,
    select_sigma,
    stratified_folds,
)
from emgactions.pnn import DEFAULT_SIGMA_GRID, NonFiniteScoreError, NonPositiveSigmaError, PnnConfig
from ._synth import assert_no_child_left, blobs, force_fork

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
    @pytest.mark.parametrize("label", [1, 3])
    def test_one_class_is_rejected(self, label):
        # One class would score alpha 1 and kappa 1 whatever the features.
        X, _ = blobs(n_per_class=6, n_classes=2, seed=1)
        y = np.full(12, label)
        message = f"every sample has label {label}; classification needs two classes"
        with pytest.raises(ValueError, match=message):
            kfold_assignment(y, 3, 0)
        with pytest.raises(ValueError, match=message):
            kfold_cv(X, y, k=3, config=FIXED, seed=0)

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


class TestFoldSigmas:
    def test_fixed_sigma_recorded_per_fold(self):
        X, y = blobs(n_per_class=12, n_classes=3, spread=1.5, seed=12)
        assert kfold_cv(X, y, k=4, config=FIXED, seed=1).sigmas == (0.5,) * 4

    def test_selected_sigma_recorded_per_fold(self):
        X, y = blobs(n_per_class=12, n_classes=3, dim=3, spread=1.5, separation=1.0, seed=13)
        config = PnnConfig(sigma=None, selection_folds=3, selection_seed=2)
        report = kfold_cv(X, y, k=4, config=config, seed=1)
        expected = tuple(
            select_sigma(X[train], y[train], DEFAULT_SIGMA_GRID, folds=3, seed=2)
            for train, _ in fold_splits(kfold_assignment(y, 4, 1))
        )
        assert report.sigmas == expected
        assert len(set(expected)) > 1  # the folds chose differently

    def test_monte_carlo_keeps_each_runs_sigmas(self):
        X, y = blobs(n_per_class=12, n_classes=3, dim=3, spread=1.5, separation=1.0, seed=13)
        config = PnnConfig(sigma=None, selection_folds=3)
        mc = monte_carlo(X, y, k=4, runs=3, base_seed=5, config=config)
        assert mc.sigmas == tuple(
            kfold_cv(X, y, k=4, config=config, seed=5 + r).sigmas for r in range(3)
        )


CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda X, y: kfold_cv(X, y, k=3, config=PnnConfig(sigma=None)),
        lambda X, y: kfold_cv(X, y, k=3, config=PnnConfig(sigma=0.5)),
        lambda X, y: select_sigma(X, y),
    ],
    ids=["kfold_auto", "kfold_fixed", "select_sigma"],
)


class TestNonFiniteX:
    @CALLS
    def test_names_the_row_and_column_of_x(self, monkeypatch, call):
        # Each call used to name the row within some fold's rows instead.
        X, y = blobs(n_per_class=10, n_classes=3, dim=3, seed=40)
        X[4, 1] = np.nan
        forked = force_fork(monkeypatch, 2)
        with pytest.raises(ValueError, match=r"^X row 4 column 1 is nan; values must be finite$"):
            call(X, y)
        assert forked == []

    @CALLS
    def test_rejects_a_matrix_that_is_not_2d(self, call):
        _, y = blobs(n_per_class=10, n_classes=3, dim=3, seed=40)
        with pytest.raises(ValueError, match=r"^X must be a 2-d matrix, got shape \(30,\)$"):
            call(np.ones(30), y)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedFolds:
    """A large kfold_cv call scores contiguous fold chunks in forked children."""

    AUTO = PnnConfig(sigma=None, selection_folds=3)

    @staticmethod
    def matrix():
        return blobs(n_per_class=12, n_classes=3, dim=3, spread=1.5, separation=1.0, seed=21)

    @staticmethod
    def overflow_in(X, y, k, fold):
        """X with a column appended whose values spread 5e-161 except at the
        first test row of fold, whose 1e-3 overflows that fold's squared
        distances alone; and that row."""
        column = np.resize([0.0, 1e-160], y.size)
        row = int(np.flatnonzero(kfold_assignment(y, k, 0) == fold)[0])
        column[row] = 1e-3
        return np.hstack([X, column[:, np.newaxis]]), row

    @staticmethod
    def same(a, b):
        return (
            np.array_equal(a.confusion, b.confusion)
            and (a.alpha, a.kappa, a.sigmas) == (b.alpha, b.kappa, b.sigmas)
        )

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    @pytest.mark.parametrize("sigma", [0.5, None], ids=["fixed", "auto"])
    def test_report_equals_serial_bit_for_bit(self, monkeypatch, cpus, sigma):
        # At 8 CPUs the call has fewer folds than CPUs.
        X, y = self.matrix()
        config = PnnConfig(sigma=sigma, selection_folds=3)
        serial = [kfold_cv(X, y, k=5, config=config, seed=s) for s in (0, 1)]
        forked = force_fork(monkeypatch, cpus)
        for seed, expected in zip((0, 1), serial):
            del forked[:]
            assert self.same(kfold_cv(X, y, k=5, config=config, seed=seed), expected)
            assert len(forked) == min(cpus, 5) - 1
            assert_no_child_left()

    @pytest.mark.parametrize(
        "k, cpus, folds",
        [(4, 2, (3,)), (6, 3, (3, 5)), (4, 2, (1, 2)), (4, 2, (3, 2))],
        ids=["child", "two_children", "parent_and_child", "later_in_a_child"],
    )
    def test_overflow_raises_as_serial(self, monkeypatch, k, cpus, folds):
        # Chunks of k=4 on 2 CPUs: folds 0-1 here, 2-3 in a child; of k=6 on
        # 3 CPUs: 0-1, 2-3, 4-5. Serial, the first failing fold raises.
        X, y = self.matrix()
        rows = {}
        for fold in folds:
            X, rows[fold] = self.overflow_in(X, y, k, fold)
        with pytest.raises(NonFiniteScoreError) as expected:
            kfold_cv(X, y, k=k, config=FIXED)
        assert expected.value.row == rows[min(folds)]
        forked = force_fork(monkeypatch, cpus)
        with pytest.raises(NonFiniteScoreError) as info:
            kfold_cv(X, y, k=k, config=FIXED)
        assert len(forked) == cpus - 1
        assert_no_child_left()
        assert str(info.value) == str(expected.value)
        assert (info.value.row, info.value.column) == (expected.value.row, expected.value.column)

    @pytest.mark.parametrize(
        "error",
        [
            NonFiniteScoreError(2, 1, 3.0),
            NonPositiveSigmaError("sigma must be finite and > 0, got -1.0"),
            EmptyGridError("sigma grid is empty"),
            ValueError("folds must be >= 2"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_error_in_a_child_keeps_type_and_message(self, monkeypatch, error):
        # The sigma search fails in the fold that tests the marked row,
        # which on 2 CPUs a child scores.
        X, y = self.matrix()
        row = int(np.flatnonzero(kfold_assignment(y, 4, 0) == 3)[0])
        X[row, 0] = 1e3
        search = crossval.select_sigma

        def fails_without_the_row(X_train, *args, **kwargs):
            if not np.any(X_train[:, 0] == 1e3):
                raise error
            return search(X_train, *args, **kwargs)

        monkeypatch.setattr(crossval, "select_sigma", fails_without_the_row)
        with pytest.raises(type(error)) as expected:
            kfold_cv(X, y, k=4, config=self.AUTO)
        forked = force_fork(monkeypatch, 2)
        with pytest.raises(type(error)) as info:
            kfold_cv(X, y, k=4, config=self.AUTO)
        assert len(forked) == 1
        assert_no_child_left()
        assert type(info.value) is type(expected.value)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize(
        "die, code", [(lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)]
    )
    def test_child_that_dies_raises_and_is_reaped(self, monkeypatch, die, code):
        X, y = self.matrix()
        force_fork(monkeypatch, 2)
        parent, fit = os.getpid(), crossval.fit_pnn

        def dies_in_a_child(*args, **kwargs):
            if os.getpid() != parent:
                die()
            return fit(*args, **kwargs)

        monkeypatch.setattr(crossval, "fit_pnn", dies_in_a_child)
        message = rf"^forked process \d+ exited without sending its result \(exit code {code}\)$"
        with pytest.raises(RuntimeError, match=message):
            kfold_cv(X, y, k=4, config=FIXED)
        assert_no_child_left()

    def test_failing_parent_kills_and_reaps_its_children(self, monkeypatch):
        X, y = self.matrix()
        forked = force_fork(monkeypatch, 3)
        parent, fit = os.getpid(), crossval.fit_pnn

        def fails_in_the_parent(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return fit(*args, **kwargs)

        monkeypatch.setattr(crossval, "fit_pnn", fails_in_the_parent)
        with pytest.raises(KeyboardInterrupt):
            kfold_cv(X, y, k=6, config=FIXED)
        assert len(forked) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("sigma", [0.5, None], ids=["fixed", "auto"])
    def test_warning_shows_as_serial(self, monkeypatch, sigma):
        # Class 2 has no sample, so every fold's fit warns the same way.
        X, y = self.matrix()
        y = np.where(y == 2, 4, y)
        config = PnnConfig(sigma=sigma, selection_folds=3)

        def shown():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                monte_carlo(X, y, k=5, runs=2, config=config)
            return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]

        serial = shown()
        assert [message for _, message, _, _ in serial] == [
            "classes without exemplars can never be predicted: [2]"
        ]
        forked = force_fork(monkeypatch, 3)
        assert shown() == serial
        assert len(forked) == 2 * 2
        assert_no_child_left()

    def test_child_warnings_show_in_fold_order_once_each(self, monkeypatch):
        # Folds 0-1 train on 27 rows and folds 2-4 on 30; on 3 CPUs the
        # chunks are fold 0 here, folds 1-2 and folds 3-4 in two children.
        X, y = self.matrix()
        fit = crossval.fit_pnn

        def warns_its_size(X_train, *args, **kwargs):
            warnings.warn(f"fold trains on {len(X_train)} rows", UserWarning)
            return fit(X_train, *args, **kwargs)

        monkeypatch.setattr(crossval, "fit_pnn", warns_its_size)

        def shown():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                kfold_cv(X, y, k=5, config=FIXED)
            return [str(w.message) for w in caught]

        assert shown() == ["fold trains on 27 rows", "fold trains on 30 rows"]
        forked = force_fork(monkeypatch, 3)
        assert shown() == ["fold trains on 27 rows", "fold trains on 30 rows"]
        assert len(forked) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("sigma", [0.5, None], ids=["fixed", "auto"])
    def test_processes_follow_the_distance_cells(self, monkeypatch, sigma):
        # One process per FORK_CELLS cells: each fold's test x training rows,
        # and under sigma=None, per grid value, the bound n^2 (f - 1) / f on
        # the cells of f inner splits of a fold's n training rows.
        X, y = self.matrix()
        config = PnnConfig(sigma=sigma, selection_folds=3)
        splits = fold_splits(kfold_assignment(y, 4, 0))
        cells = sum(test.size * train.size for train, test in splits)
        if sigma is None:
            cells += sum(len(DEFAULT_SIGMA_GRID) * train.size**2 * 2 // 3 for train, _ in splits)
        forked = force_fork(monkeypatch, 8)
        for fork_cells, processes in [(1 << 24, 1), (cells + 1, 1), (cells, 2), (cells // 2, 3)]:
            monkeypatch.setattr(crossval, "FORK_CELLS", fork_cells)
            del forked[:]
            kfold_cv(X, y, k=4, config=config)
            assert len(forked) == processes - 1, fork_cells
            assert_no_child_left()


@pytest.mark.parametrize("k", [4, 5])
def test_cell_count_cuts_no_inner_split(monkeypatch, k):
    # kfold_cv sizes its fork from the training rows alone: only the outer
    # assignment and each fold's select_sigma cut folds. With k = 5 the
    # inner splits are uneven, so the bound exceeds their cells.
    X, y = TestForkedFolds.matrix()
    train = [y.size - test.size for _, test in fold_splits(kfold_assignment(y, k, 0))]
    cuts = []
    real = crossval.stratified_folds

    def counting(y, k, seed):
        cuts.append(y.size)
        return real(y, k, seed)

    monkeypatch.setattr(crossval, "stratified_folds", counting)
    monkeypatch.setattr(crossval, "FORK_CELLS", 1 << 40)
    kfold_cv(X, y, k=k, config=PnnConfig(sigma=None, selection_folds=3))
    assert cuts == [y.size, *train]


@pytest.mark.parametrize("processes", [0, 1 << 30])
def test_map_chunks_of_no_items_is_empty(monkeypatch, processes):
    forked = force_fork(monkeypatch, 4)
    calls = []
    assert crossval.map_chunks(calls.append, [], processes) == []
    assert calls == forked == []
