import numpy as np
import pytest

from emgactions.features.crosschannel import (
    DEFAULT_PAIRS,
    BadPairError,
    LengthMismatchError,
    compute_ics,
    ics_max_xcorr,
)


def brute_force_max_xcorr(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    L = a.size
    best = -np.inf
    for d in range(-(L - 1), L):
        total = 0.0
        for l in range(L):
            if 0 <= l + d < L:
                total += a[l] * b[l + d]
        best = max(best, total / L)
    return best


def test_self_correlation_alternating():
    assert ics_max_xcorr([1, -1, 1, -1], [1, -1, 1, -1]) == pytest.approx(1.0)


def test_single_overlap_at_extreme_lag():
    assert ics_max_xcorr([1, 0, 0, 0], [0, 0, 0, 1]) == pytest.approx(0.25)


def test_delayed_copy_peak_off_zero_lag():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1, 32)
    b = np.zeros(32)
    b[2:] = a[:-2]  # delay by 2, zero-padded
    got = ics_max_xcorr(a, b)
    assert got == pytest.approx(brute_force_max_xcorr(a, b), rel=1e-12)
    # zero-lag value is strictly smaller than the lag-2 peak here
    zero_lag = float(np.dot(a, b)) / 32
    assert got > zero_lag


def test_matches_brute_force_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(25):
        L = int(rng.integers(1, 24))
        a = rng.normal(0, 1, L)
        b = rng.normal(0, 1, L)
        assert ics_max_xcorr(a, b) == pytest.approx(brute_force_max_xcorr(a, b), rel=1e-10, abs=1e-12)


def test_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        L = int(rng.integers(1, 40))
        a = rng.normal(0, 1, L)
        b = rng.normal(0, 1, L)
        assert ics_max_xcorr(a, b) == pytest.approx(ics_max_xcorr(b, a), rel=1e-12, abs=1e-12)


def test_autocorrelation_peaks_at_zero_lag():
    rng = np.random.default_rng(3)
    for _ in range(50):
        L = int(rng.integers(2, 40))
        a = rng.normal(0, 1, L)
        full = np.correlate(a, a, mode="full") / L
        assert ics_max_xcorr(a, a) == pytest.approx(full[L - 1], rel=1e-12)
        assert full[L - 1] >= full.max() - 1e-15


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        ics_max_xcorr([1, 2], [1, 2, 3])


def test_default_pairs_cover_both_limb_groups():
    assert len(DEFAULT_PAIRS) == 12
    upper = [p for p in DEFAULT_PAIRS[:6]]
    assert all(1 <= i <= 4 and 1 <= j <= 4 for i, j in upper)
    assert DEFAULT_PAIRS[0] == (3, 4)
    assert DEFAULT_PAIRS[5] == (1, 2)
    assert DEFAULT_PAIRS[6] == (7, 8)
    assert DEFAULT_PAIRS[-1] == (5, 6)


def test_compute_ics_identical_channels():
    rng = np.random.default_rng(4)
    row = rng.normal(0, 1, 64)
    values = compute_ics(np.tile(row, (8, 1)))
    assert values.shape == (12,)
    assert np.allclose(values, values[0])


def test_compute_ics_bad_pair():
    with pytest.raises(BadPairError):
        compute_ics(np.zeros((8, 16)), pairs=[(0, 9)])


def test_compute_ics_segment_averaging():
    rng = np.random.default_rng(5)
    trial = rng.normal(0, 1, (2, 40))
    whole = compute_ics(trial, pairs=[(1, 2)], window=20)[0]
    first = ics_max_xcorr(trial[0][:20], trial[1][:20])
    second = ics_max_xcorr(trial[0][20:], trial[1][20:])
    assert whole == pytest.approx((first + second) / 2, rel=1e-12)
