import os
import signal
import tracemalloc

import numpy as np
import pytest

from emgactions import crossval, selection
from emgactions.crossval import TooFewSamplesError, kfold_assignment, kfold_cv, monte_carlo
from emgactions.features.registry import BadIndexError, build_registry
from emgactions.pnn import NonFiniteScoreError, NonPositiveSigmaError, PnnConfig
from emgactions.selection import (
    ChannelUnusedWarning,
    NoFeaturesError,
    ablation,
    ablation_groups,
    channel_relevance,
    cv_accuracy_criterion,
    reference_selection,
    sfs,
)

from ._synth import assert_no_child_left, blobs, force_fork

SIGMA = 0.3
FIXED = PnnConfig(sigma=SIGMA)


def per_subset(score):
    """A step criterion from a function of one feature tuple."""
    return lambda selected, candidates: [score(tuple(selected) + (c,)) for c in candidates]


def score_of(crit, cols):
    """The criterion's score for the feature tuple cols."""
    return crit(cols[:-1], cols[-1:])[0]


def labeled_noise(n_per=20, n_cols=45, informative=(0,), seed=0):
    # two classes; the informative columns carry a +3 shift for class 2
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 2], n_per)
    X = rng.normal(0, 1, (2 * n_per, n_cols))
    for c in informative:
        X[:, c] += 3.0 * (y == 2)
    return X, y


class TestCriterion:
    def test_informative_column_scores_higher(self):
        X, y = labeled_noise(n_cols=3, informative=(1,), seed=1)
        crit = cv_accuracy_criterion(X, y, k=3, sigma=SIGMA, seed=0)
        first, second, _ = crit((), (1, 2, 3))
        assert second > first
        assert second > 0.9

    def test_deterministic(self):
        X, y = labeled_noise(n_cols=4, informative=(0,), seed=2)
        crit = cv_accuracy_criterion(X, y, k=3, sigma=SIGMA, seed=0)
        assert crit((1,), (3, 2)) == crit((1,), (3, 2))

    @pytest.mark.parametrize("k", [2, 3])
    def test_equals_kfold_cv_on_random_call_sequences(self, k):
        # Continuous, discrete-valued (ties between exemplar distances) and
        # constant columns; selected sets that extend the last one, repeat it
        # or jump to an unrelated one, each with random candidates in random
        # order.
        rng = np.random.default_rng(20 + k)
        X, y = blobs(n_per_class=12, n_classes=3, dim=4, spread=1.5, separation=1.0, seed=k)
        X = np.hstack([X, rng.integers(0, 3, (y.size, 3)).astype(float), np.full((y.size, 1), 0.1)])
        d = X.shape[1]
        crit = cv_accuracy_criterion(X, y, k=k, sigma=SIGMA, seed=5)
        selected = []
        for _ in range(60):
            move = rng.integers(4)
            if move == 0 or len(selected) == d:
                selected = list(rng.permutation(np.arange(1, d + 1))[: rng.integers(0, d)])
            elif move == 1:
                selected.append(int(rng.choice([i for i in range(1, d + 1) if i not in selected])))
            unselected = [i for i in range(1, d + 1) if i not in selected] or [1]
            candidates = [int(c) for c in rng.permutation(unselected)[: rng.integers(1, len(unselected) + 1)]]
            scores = crit(tuple(selected), tuple(candidates))
            assert len(scores) == len(candidates)
            for candidate, score in zip(candidates, scores):
                cols = tuple(selected) + (candidate,)
                expected = kfold_cv(X[:, np.array(cols) - 1], y, k=k, config=FIXED, seed=5).alpha
                assert score == expected, cols

    @pytest.mark.parametrize("k", [2, 3])
    def test_xor_bits_equal_kfold_cv(self, k):
        bits = np.array([(a, b, a) for a in (0, 1) for b in (0, 1)] * 9, dtype=float)
        y = 1 + (bits[:, 0] != bits[:, 1]).astype(int)
        config = PnnConfig(sigma=0.5)
        crit = cv_accuracy_criterion(bits, y, k=k, sigma=0.5, seed=1)
        for cols in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 1), (2, 3), (1, 2, 3), (3, 2, 1)]:
            expected = kfold_cv(bits[:, np.array(cols) - 1], y, k=k, config=config, seed=1).alpha
            assert score_of(crit, cols) == expected, cols

    def test_sfs_trace_equals_kfold_cv_trace(self):
        X, y = blobs(n_per_class=15, n_classes=4, dim=10, spread=2.0, separation=1.0, seed=23)

        def reference(cols):
            return kfold_cv(X[:, np.array(cols) - 1], y, k=3, config=FIXED, seed=0).alpha

        fast = sfs(X, y, cv_accuracy_criterion(X, y, k=3, sigma=SIGMA), max_features=5, patience=5)
        slow = sfs(X, y, per_subset(reference), max_features=5, patience=5)
        assert len(fast) == 5
        assert fast.steps == slow.steps

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        X, y = labeled_noise(n_cols=3, seed=1)
        with pytest.raises(NonPositiveSigmaError):
            cv_accuracy_criterion(X, y, sigma=sigma)

    def test_fold_checks_kept(self):
        X, y = labeled_noise(n_per=4, n_cols=3, seed=1)
        with pytest.raises(ValueError, match="k must be >= 2"):
            cv_accuracy_criterion(X, y, k=1, sigma=SIGMA)
        with pytest.raises(TooFewSamplesError):
            cv_accuracy_criterion(X, y, k=5, sigma=SIGMA)

    def test_non_finite_value_named(self):
        X, y = labeled_noise(n_cols=3, seed=1)
        X[4, 2] = np.nan
        with pytest.raises(ValueError, match=r"^X row 4 column 2 is nan; values must be finite$"):
            cv_accuracy_criterion(X, y, k=3, sigma=SIGMA)

    def test_overflowing_distances_name_the_matrix_row(self):
        # Column 2's training spread is 5e-161 in the fold that tests row 7,
        # whose 1e-3 lies 2e157 spreads away.
        X, y = labeled_noise(n_cols=3, seed=1)
        X[:, 1] = np.resize([0.0, 1e-160], y.size)
        X[7, 1] = 1e-3
        crit = cv_accuracy_criterion(X, y, k=3, sigma=SIGMA)
        assert score_of(crit, (1,)) > 0.0
        message = r"^query row 7 has no finite class score: column 1 lies 2[.0-9]*e\+157 "
        with pytest.raises(NonFiniteScoreError, match=message) as info:
            crit((1,), (2,))
        assert (info.value.row, info.value.column) == (7, 1)


class TestCriterionBlocks:
    """A call takes each fold's test rows ROW_BLOCK at a time."""

    @staticmethod
    def matrix():
        # 3 classes x 13 rows and k = 2: folds of 19 and 20 test rows, so at
        # ROW_BLOCK = 4 each holds four whole blocks, one with a ragged fifth.
        rng = np.random.default_rng(31)
        X, y = blobs(n_per_class=13, n_classes=3, dim=4, spread=1.5, separation=1.0, seed=31)
        X = np.hstack([X, rng.integers(0, 3, (y.size, 2)).astype(float)])
        sizes = np.bincount(kfold_assignment(y, 2, 4))
        assert sizes.min() > 4 * 4 and np.any(sizes % 4)
        return X, y

    def test_small_blocks_keep_every_score(self, monkeypatch):
        X, y = self.matrix()
        steps = [((), (1, 2, 3, 4, 5, 6)), ((3,), (6, 1, 5, 2)), ((3, 6, 1), (2, 4, 5))]
        whole = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        expected = [whole(selected, candidates) for selected, candidates in steps]
        monkeypatch.setattr(selection, "ROW_BLOCK", 4)
        blocked = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        for (selected, candidates), scores in zip(steps, expected):
            assert blocked(selected, candidates) == scores
            for c, score in zip(candidates, scores):
                cols = np.array(selected + (c,)) - 1
                assert score == kfold_cv(X[:, cols], y, k=2, config=FIXED, seed=4).alpha, (selected, c)

    @staticmethod
    def overflow_in(X, y, fold, position, column):
        # Column's values spread 5e-161, except one test row of fold, whose
        # 1e-3 lies 2e157 spreads from that fold's training mean.
        X[:, column] = np.resize([0.0, 1e-160], y.size)
        row = int(np.flatnonzero(kfold_assignment(y, 2, 4) == fold)[position])
        X[row, column] = 1e-3
        return row

    @pytest.mark.parametrize("block", [4, 128])
    def test_overflow_in_a_later_block_names_the_matrix_row(self, monkeypatch, block):
        monkeypatch.setattr(selection, "ROW_BLOCK", block)
        X, y = self.matrix()
        row = self.overflow_in(X, y, fold=1, position=10, column=4)
        crit = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        message = rf"^query row {row} has no finite class score: column 4 lies 2[.0-9]*e\+157 "
        with pytest.raises(NonFiniteScoreError, match=message) as info:
            crit((2, 1), (3, 5, 6))
        assert (info.value.row, info.value.column) == (row, 4)

    @pytest.mark.parametrize("block", [4, 128])
    def test_overflow_names_the_first_failing_candidate(self, monkeypatch, block):
        # Feature 6 overflows in fold 0, which is scored first, and feature 5
        # only in fold 1; one candidate at a time, feature 5 fails first.
        monkeypatch.setattr(selection, "ROW_BLOCK", block)
        X, y = self.matrix()
        row = self.overflow_in(X, y, fold=1, position=10, column=4)
        self.overflow_in(X, y, fold=0, position=2, column=5)
        crit = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        with pytest.raises(NonFiniteScoreError) as info:
            crit((1,), (2, 5, 6))
        assert (info.value.row, info.value.column) == (row, 4)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedSteps:
    """A large step scores contiguous candidate chunks in forked children."""

    matrix = staticmethod(TestCriterionBlocks.matrix)
    overflow_in = staticmethod(TestCriterionBlocks.overflow_in)

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_scores_equal_serial_bit_for_bit(self, monkeypatch, cpus):
        # At 8 CPUs every step has fewer candidates than CPUs.
        X, y = self.matrix()
        steps = [((), (1, 2, 3, 4, 5, 6)), ((3,), (6, 1, 5, 2)), ((3, 6, 1), (2, 4, 5))]
        serial = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        expected = [serial(selected, candidates) for selected, candidates in steps]
        forked = force_fork(monkeypatch, cpus)
        crit = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        for (selected, candidates), scores in zip(steps, expected):
            del forked[:]
            assert crit(selected, candidates) == scores
            assert len(forked) == min(cpus, len(candidates)) - 1
            assert_no_child_left()

    @pytest.mark.parametrize(
        "cpus, candidates",
        [(2, (2, 3, 5, 6)), (3, (2, 5, 6)), (3, (5, 2, 6)), (2, (6, 2, 5, 3))],
        ids=["child", "two_children", "parent_and_child", "later_in_a_child"],
    )
    def test_overflow_raises_as_serial(self, monkeypatch, cpus, candidates):
        # Feature 5 overflows in fold 1 and feature 6 in fold 0, which is
        # scored first; serial, the first of them in candidate order fails.
        X, y = self.matrix()
        self.overflow_in(X, y, fold=1, position=10, column=4)
        self.overflow_in(X, y, fold=0, position=2, column=5)
        serial = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        with pytest.raises(NonFiniteScoreError) as expected:
            serial((1,), candidates)
        forked = force_fork(monkeypatch, cpus)
        crit = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        with pytest.raises(NonFiniteScoreError) as info:
            crit((1,), candidates)
        assert len(forked) == cpus - 1
        assert_no_child_left()
        assert str(info.value) == str(expected.value)
        assert (info.value.row, info.value.column) == (expected.value.row, expected.value.column)
        assert info.value.spread == expected.value.spread

    @pytest.mark.parametrize(
        "die, code", [(lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)]
    )
    def test_child_that_dies_raises_and_is_reaped(self, monkeypatch, die, code):
        X, y = self.matrix()
        force_fork(monkeypatch, 2)
        parent, classify = os.getpid(), selection.classify_distances

        def dies_in_a_child(*args):
            if os.getpid() != parent:
                die()
            return classify(*args)

        monkeypatch.setattr(selection, "classify_distances", dies_in_a_child)
        crit = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        message = rf"^forked process \d+ exited without sending its result \(exit code {code}\)$"
        with pytest.raises(RuntimeError, match=message):
            crit((), (1, 2, 3, 4))
        assert_no_child_left()

    def test_failing_parent_kills_and_reaps_its_children(self, monkeypatch):
        X, y = self.matrix()
        forked = force_fork(monkeypatch, 3)
        parent, classify = os.getpid(), selection.classify_distances

        def fails_in_the_parent(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return classify(*args)

        monkeypatch.setattr(selection, "classify_distances", fails_in_the_parent)
        crit = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        with pytest.raises(KeyboardInterrupt):
            crit((), (1, 2, 3, 4, 5, 6))
        assert len(forked) == 2
        assert_no_child_left()

    def test_small_step_stays_serial(self, monkeypatch):
        X, y = self.matrix()
        forked = force_fork(monkeypatch, 2)
        monkeypatch.setattr(crossval, "FORK_CELLS", 6 * X.shape[0] ** 2)
        crit = cv_accuracy_criterion(X, y, k=2, sigma=SIGMA, seed=4)
        crit((), (1, 2, 3, 4, 5, 6))
        assert forked == []


def test_criterion_memory_stays_below_half_a_prefix_cache_per_fold():
    # A criterion that keeps one (n_test, n_train) float64 prefix cache per
    # fold needs twice the bound for its caches alone. A call's two
    # (ROW_BLOCK, n_train) buffers take 78% of it at 660 rows; the rest
    # leaves room for numpy's transient ufunc buffers, whose size differs
    # between numpy versions (at 600 rows the peak came within 4% of it).
    k, n_per = 3, 220
    rng = np.random.default_rng(7)
    y = np.repeat([1, 2, 3], n_per)
    n_test, n_train = y.size // k, y.size - y.size // k
    warm = cv_accuracy_criterion(np.eye(9), np.repeat([1, 2, 3], 3), k=k, sigma=SIGMA)
    warm((1, 2), (3, 4))  # imports numpy's lazily loaded modules outside the trace
    tracemalloc.start()
    try:
        X = rng.normal(size=(y.size, 8)) + y[:, np.newaxis]
        crit = cv_accuracy_criterion(X, y, k=k, sigma=SIGMA)
        crit((1, 2, 3), (4, 5, 6, 7, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - X.nbytes < k * n_test * n_train * 8 / 2


class TestSfs:
    def test_picks_informative_feature_first(self):
        X, y = labeled_noise(n_cols=5, informative=(2,), seed=3)
        trace = sfs(X, y, criterion=cv_accuracy_criterion(X, y, k=3, sigma=SIGMA))
        assert trace.selected[0] == 3

    def test_xor_pair_found_within_two_steps(self):
        bits = np.array([(a, b) for a in (0, 1) for b in (0, 1)] * 10, dtype=float)
        y = 1 + (bits[:, 0] != bits[:, 1]).astype(int)
        crit = cv_accuracy_criterion(bits, y, k=2, sigma=0.5, seed=0)
        trace = sfs(bits, y, criterion=crit)
        assert set(trace.selected) == {1, 2}
        assert trace.scores[-1] == 1.0

    def test_scores_nondecreasing(self):
        X, y = labeled_noise(n_cols=6, informative=(0, 3), seed=4)
        trace = sfs(X, y, criterion=cv_accuracy_criterion(X, y, k=3, sigma=SIGMA))
        assert len(trace) >= 1
        assert np.all(np.diff(trace.scores) >= 0)

    def test_tie_takes_smallest_index(self):
        X = np.zeros((10, 4))
        trace = sfs(X, np.ones(10, dtype=int), criterion=per_subset(lambda t: 0.7))
        assert trace.selected == (1,)
        assert trace.scores == (0.7,)

    def test_plateau_patience_semantics(self):
        X = np.zeros((10, 5))
        y = np.ones(10, dtype=int)
        flat = per_subset(lambda t: 0.7)
        # patience=1: the first equal-score step already stops the search
        assert sfs(X, y, criterion=flat, patience=1).selected == (1,)
        # patience=3: two equal-score steps are tolerated before stopping
        assert sfs(X, y, criterion=flat, patience=3, max_features=3).selected == (1, 2, 3)

    def test_strictly_worse_step_stops(self):
        scores = {(2,): 0.9}
        crit = per_subset(lambda t: scores.get(tuple(t), 0.8 if len(t) > 1 else 0.5))
        trace = sfs(np.zeros((8, 4)), np.ones(8, dtype=int), criterion=crit)
        assert trace.selected == (2,)

    def test_improvement_resets_plateau_counter(self):
        # equal step, strict improvement, equal step: with patience=2 both
        # equal steps pass because the improvement resets the counter
        table = {
            (1,): 0.5, (2,): 0.4, (3,): 0.4, (4,): 0.4,
            (1, 2): 0.5, (1, 3): 0.5, (1, 4): 0.5,
            (1, 2, 3): 0.9, (1, 2, 4): 0.7,
            (1, 2, 3, 4): 0.9,
        }
        crit = per_subset(lambda t: table[tuple(sorted(t))])
        trace = sfs(np.zeros((8, 4)), np.ones(8, dtype=int), criterion=crit, patience=2)
        assert trace.selected == (1, 2, 3, 4)
        assert trace.scores == (0.5, 0.5, 0.9, 0.9)

    def test_max_features_cap(self):
        X, y = labeled_noise(n_cols=6, seed=5)
        trace = sfs(X, y, criterion=per_subset(lambda t: float(len(t))), max_features=2)
        assert len(trace) == 2

    def test_no_features(self):
        with pytest.raises(NoFeaturesError):
            sfs(np.empty((5, 0)), np.ones(5, dtype=int))

    def test_bad_max_features(self):
        with pytest.raises(ValueError):
            sfs(np.zeros((5, 2)), np.ones(5, dtype=int), max_features=0)


class TestChannelRelevance:
    # global indices: 1 = tds_ch1_mean, 33 = ics over channels (3,4), 45 = lmf_ch1_f1
    def test_informative_channel_collapses(self):
        reg = build_registry()
        X, y = labeled_noise(n_cols=45, informative=(0,), seed=6)
        with pytest.warns(ChannelUnusedWarning):
            results = channel_relevance(
                X, y, (1, 33), reg, k=5, runs=2, base_seed=0, config=FIXED
            )
        assert len(results) == 8
        # dropping channel 1 removes the only informative feature
        assert results[0].mean_kappa < 0.3
        # dropping channel 3 or 4 keeps it
        assert results[2].mean_kappa > 0.7
        assert results[3].mean_kappa > 0.7

    def test_untouched_channel_warns_and_matches_full_run(self):
        reg = build_registry()
        X, y = labeled_noise(n_cols=45, informative=(0, 32), seed=7)
        with pytest.warns(ChannelUnusedWarning) as rec:
            results = channel_relevance(
                X, y, (1, 33), reg, k=5, runs=2, base_seed=0, config=FIXED
            )
        assert any("channel 2" in str(w.message) for w in rec)
        full = monte_carlo(X[:, [0, 32]], y, k=5, runs=2, base_seed=0, config=FIXED)
        assert np.array_equal(results[1].alphas, full.alphas)
        assert np.array_equal(results[1].confusion, full.confusion)

    def test_empty_remainder_scores_constant_predictor(self):
        reg = build_registry()
        X, y = labeled_noise(n_cols=45, informative=(0,), seed=8)
        with pytest.warns(UserWarning) as rec:
            results = channel_relevance(
                X, y, (1,), reg, k=5, runs=3, base_seed=0, config=FIXED
            )
        assert any("constant" in str(w.message) for w in rec)
        ch1 = results[0]
        assert np.array_equal(ch1.alphas, np.full(3, 0.5))
        assert np.array_equal(ch1.kappas, np.zeros(3))
        assert np.array_equal(ch1.confusion, 3 * np.array([[20, 0], [20, 0]]))

    def test_empty_selection_rejected(self):
        reg = build_registry()
        X, y = labeled_noise(seed=9)
        with pytest.raises(NoFeaturesError):
            channel_relevance(X, y, (), reg)

    def test_unknown_index_rejected(self):
        reg = build_registry()
        X, y = labeled_noise(seed=10)
        with pytest.raises(BadIndexError):
            channel_relevance(X, y, (1, 300), reg)

    def test_repeated_index_rejected(self):
        # Counted twice, index 5's column would weigh double in every distance.
        reg = build_registry()
        X, y = labeled_noise(n_cols=45, seed=10)
        with pytest.warns(ChannelUnusedWarning), pytest.raises(ValueError, match="index 5 "):
            channel_relevance(X, y, (5, 5, 9), reg, k=5, runs=1, config=FIXED)


class TestAblation:
    def test_groups_accumulate(self):
        X, y = labeled_noise(n_cols=45, informative=(0,), seed=11)
        out = ablation(
            X, y, {"noise": [45], "signal": [1]}, k=5, runs=2, base_seed=0, config=FIXED
        )
        assert [name for name, _ in out] == ["noise", "signal"]
        first, second = out[0][1], out[1][1]
        assert abs(first.mean_kappa) < 0.3
        assert second.mean_kappa > 0.7
        assert second.mean_kappa - first.mean_kappa > 0.4

    def test_single_group_equals_monte_carlo(self):
        X, y = labeled_noise(n_cols=10, informative=(0, 4), seed=12)
        out = ablation(X, y, {"all": [1, 5]}, k=4, runs=2, base_seed=3, config=FIXED)
        direct = monte_carlo(X[:, [0, 4]], y, k=4, runs=2, base_seed=3, config=FIXED)
        assert np.array_equal(out[0][1].alphas, direct.alphas)
        assert np.array_equal(out[0][1].confusion, direct.confusion)

    def test_duplicate_indices_ignored(self):
        X, y = labeled_noise(n_cols=6, informative=(0,), seed=13)
        a = ablation(X, y, {"a": [1], "b": [1, 2]}, k=4, runs=1, config=FIXED)
        b = ablation(X, y, {"a": [1], "b": [2]}, k=4, runs=1, config=FIXED)
        assert np.array_equal(a[1][1].alphas, b[1][1].alphas)

    def test_bad_index(self):
        X, y = labeled_noise(n_cols=6, seed=14)
        with pytest.raises(BadIndexError):
            ablation(X, y, {"a": [7]}, config=FIXED)

    def test_empty_groups(self):
        X, y = labeled_noise(seed=15)
        with pytest.raises(ValueError):
            ablation(X, y, {}, config=FIXED)


class TestReferenceSelection:
    def test_size_and_composition(self):
        reg = build_registry()
        sel = reference_selection(reg)
        assert len(sel) == 36
        assert len(set(sel)) == 36
        assert list(sel) == sorted(sel)
        assert all(1 <= i <= 276 for i in sel)
        mods = [reg[i].modality for i in sel]
        assert mods.count("tds") == 9
        assert mods.count("ics") == 3
        assert mods.count("lmf") == 15
        assert mods.count("sbp") == 7
        assert mods.count("lbp") == 2

    def test_known_members(self):
        sel = reference_selection(build_registry())
        for idx in (1, 29, 35, 38, 44, 48, 191, 265, 269):
            assert idx in sel

    def test_ablation_groups_partition(self):
        reg = build_registry()
        sel = reference_selection(reg)
        groups = ablation_groups(sel, reg)
        assert list(groups) == ["baseline", "ics", "lmf"]
        assert len(groups["baseline"]) == 20
        assert len(groups["ics"]) == 3
        assert len(groups["lmf"]) == 13
        merged = groups["baseline"] + groups["ics"] + groups["lmf"]
        assert sorted(merged) == list(sel)
        assert set(groups["ics"]) == {35, 38, 44}
        assert all(reg[i].modality == "lmf" for i in groups["lmf"])
