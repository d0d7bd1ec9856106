import numpy as np
import pytest

from emgactions.features.localbinary import (
    LBP_THRESHOLD,
    LBP_WINDOW,
    WindowTooLongError,
    lbp_features,
)


def test_defaults():
    assert LBP_WINDOW == 8
    assert LBP_THRESHOLD == 127


def test_constant_signal_all_windows_max_code():
    # every sample equals the window mean, so every bit fires: code 255 > 127
    out = lbp_features(np.full(20, 5.0))
    assert np.array_equal(out, [0.0, 13.0])


def test_ramp_single_code():
    # on a linear ramp sample j - mean is symmetric around the center:
    # bits 0..3 negative, bits 4..7 nonnegative, code 240 > 127 everywhere
    out = lbp_features(np.arange(30.0))
    assert np.array_equal(out, [0.0, 23.0])


def test_alternating_signal():
    x = np.tile([1.0, -1.0], 8)
    out = lbp_features(x)
    # window mean is 0; bits fire at the +1 positions only
    # even-aligned windows -> 0b01010101 = 85, odd-aligned -> 0b10101010 = 170
    assert np.array_equal(out, [5.0, 4.0])


def test_counts_partition_windows():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(8, 200))
        x = rng.normal(0, 10, n)
        out = lbp_features(x)
        assert out.shape == (2,)
        assert out[0] + out[1] == n - 7
        assert out[0] >= 0 and out[1] >= 0


def test_window_too_long():
    with pytest.raises(WindowTooLongError):
        lbp_features(np.ones(7))
    with pytest.raises(WindowTooLongError):
        lbp_features(np.ones(3), window=4)


def test_window_one():
    # single-sample windows: sample - mean == 0, bit fires, code 1 <= threshold
    out = lbp_features(np.arange(12.0), window=1)
    assert np.array_equal(out, [12.0, 0.0])


def test_threshold_boundary_is_inclusive():
    # code exactly equal to the threshold counts in the first bin
    x = np.tile([1.0, -1.0], 8)
    out = lbp_features(x, threshold=85)
    assert np.array_equal(out, [5.0, 4.0])
    out = lbp_features(x, threshold=84)
    assert np.array_equal(out, [0.0, 9.0])


def _full_codes(x, window):
    # The reference: each position's code as an exact Python int.
    views = np.lib.stride_tricks.sliding_window_view(np.asarray(x, dtype=float), window, axis=-1)
    bits = views >= views.mean(axis=-1)[..., None]
    codes = np.empty(bits.shape[:-1], dtype=object)
    for idx in np.ndindex(codes.shape):
        codes[idx] = sum(1 << j for j in range(window) if bits[idx + (j,)])
    return codes


def _reference_counts(codes, threshold):
    below = np.sum(codes <= threshold, axis=-1).astype(int)
    return np.stack([below, codes.shape[-1] - below], axis=-1)


def _exactness_inputs(window):
    rng = np.random.default_rng(window)
    n = window + 30
    return [
        rng.normal(0, 1, (3, 2, n)),
        # Small integers: many samples tie with their window mean.
        rng.integers(-2, 3, (2, n)).astype(float),
        rng.integers(0, 2, n).astype(float),
    ]


@pytest.mark.parametrize("window", range(1, 11))
def test_counts_match_full_codes_for_every_threshold(window):
    for x in _exactness_inputs(window):
        codes = _full_codes(x, window)
        for threshold in range(-3, 2**window + 2):
            expected = _reference_counts(codes, threshold)
            assert np.array_equal(lbp_features(x, window, threshold), expected), threshold


@pytest.mark.parametrize("window", [63, 64, 65, 70])
def test_counts_match_full_codes_for_long_windows(window):
    # A code of 64 or more bits fits no int64; the counts must still be exact.
    for x in _exactness_inputs(window):
        codes = _full_codes(x, window)
        present = {int(c) + d for c in codes.ravel()[:40] for d in (-1, 0, 1)}
        edges = {2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**window - 2, 2**window - 1, 2**window, 2**window + 1}
        for threshold in sorted({-3, -1, 0, 1, 127} | edges | present):
            expected = _reference_counts(codes, threshold)
            assert np.array_equal(lbp_features(x, window, threshold), expected), threshold


def test_window_64_counts_do_not_wrap():
    # Bit 63 of an int64 code would be its sign bit and flip codes negative.
    x = np.random.default_rng(0).normal(0, 1, 400)
    assert np.array_equal(lbp_features(x, 64, 127), [0, 337])
