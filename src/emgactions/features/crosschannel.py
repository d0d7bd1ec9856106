"""Inter-channel statistics: peak cross-correlation between channel pairs."""

from __future__ import annotations

import numpy as np

from emgactions.dataset import segment_channel

# Default channel pairs: six among the upper-limb electrodes (1-4), six among
# the lower-limb electrodes (5-8), in this fixed order.
DEFAULT_PAIRS = (
    (3, 4),
    (2, 4),
    (2, 3),
    (1, 4),
    (1, 3),
    (1, 2),
    (7, 8),
    (6, 8),
    (6, 7),
    (5, 8),
    (4, 7),
    (5, 6),
)


class LengthMismatchError(ValueError):
    """Cross-correlated segments must have equal length."""


class BadPairError(ValueError):
    """A channel pair references a channel outside 1..M."""


def ics_max_xcorr(seg_a, seg_b) -> float | np.ndarray:
    """Maximum of the biased cross-correlation over all integer lags.

    The estimator is (1/L) * sum_l a(l) b(l+d) with out-of-range terms zero,
    maximized over d in [-(L-1), L-1]. No normalization beyond the 1/L
    factor, so the value scales with signal power. Computed along the last
    axis by zero-padded FFT, O(L log L); leading axes are batch axes:
    (..., L) and (..., L) -> (...).
    """
    a = np.atleast_1d(np.asarray(seg_a, dtype=float))
    b = np.atleast_1d(np.asarray(seg_b, dtype=float))
    n = a.shape[-1]
    if n != b.shape[-1]:
        raise LengthMismatchError(f"segment lengths differ: {n} vs {b.shape[-1]}")
    if n < 1:
        raise ValueError("segments must be nonempty")
    size = _fft_size(2 * n - 1)
    return _peak_xcorr(np.fft.rfft(a, size), np.fft.rfft(b, size), n, size)[()]


def _peak_xcorr(fa, fb, n: int, size: int) -> np.ndarray:
    """Peak biased cross-correlation from the size-point rfft's of two length-n signals."""
    spectrum = fa.conj()
    spectrum *= fb
    xcorr = np.fft.irfft(spectrum, size)
    # Lags 0..n-1 sit at the front, lags -(n-1)..-1 at the back; the bins
    # between hold rounding noise, not lags.
    ahead = xcorr[..., :n].max(axis=-1)
    behind = xcorr[..., size - n + 1 :].max(axis=-1, initial=-np.inf)
    return np.maximum(ahead, behind) / n


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length the FFT handles fast.

    A length with a large prime factor, such as 2L - 1 = 19999, transforms
    many times slower, and the next power of two can be much longer.
    """
    size = n
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


def compute_ics(channels, pairs=DEFAULT_PAIRS, window: int | None = None) -> np.ndarray:
    """Peak cross-correlation for each channel pair of a trial.

    Args:
        channels: float array of shape (..., M, N) whose leading axes are
            batch axes.
        pairs: 1-based (i, j) channel pairs, evaluated in order.
        window: segment length; None uses the whole trial. With several
            segments per trial the per-segment values are averaged.

    Returns:
        Array of shape (..., len(pairs)).

    Raises:
        BadPairError: a pair references a channel outside 1..M.
    """
    x = np.asarray(channels, dtype=float)
    m = x.shape[-2]
    for i, j in pairs:
        if not (1 <= i <= m and 1 <= j <= m):
            raise BadPairError(f"pair ({i}, {j}) outside channels 1..{m}")
    segs = segment_channel(x, window if window is not None else x.shape[-1])
    n = segs.shape[-1]
    size = _fft_size(2 * n - 1)
    # One forward transform per channel, shared by every pair it is in.
    spectra = np.fft.rfft(segs, size)
    peaks = [
        _peak_xcorr(spectra[..., i - 1, :, :], spectra[..., j - 1, :, :], n, size)
        for i, j in pairs
    ]
    return np.stack(peaks, axis=-2).mean(axis=-1)
