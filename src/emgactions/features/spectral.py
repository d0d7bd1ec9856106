"""Fourier power spectra, spectral moments, and log-moment features."""

from __future__ import annotations

import numpy as np

# Floor for every logarithm argument; keeps silent channels finite.
LOG_EPS = 1e-12

# Ordered index pairs (i, j) over moments 1..5 for the pairwise product
# features: i < j in lexicographic order, 10 pairs.
MOMENT_PAIRS = (
    (1, 2),
    (1, 3),
    (1, 4),
    (1, 5),
    (2, 3),
    (2, 4),
    (2, 5),
    (3, 4),
    (3, 5),
    (4, 5),
)

LMF_COUNT = 17


def power_spectrum(segment) -> np.ndarray:
    """Squared-magnitude spectrum psi(k) = |sum_l s(l) e^(-i 2 pi l k / L)|^2.

    Both the sample index l and the frequency index k run 1..L, so the DC
    term lands in the last bin psi(L) rather than the first. Leading axes are
    batch axes: (..., L) -> (..., L).

    Computed from the real FFT's L // 2 + 1 bins: a real segment's DFT
    has |X(L-k)| = |X(k)|, so the upper half is the lower half mirrored.
    """
    s = np.atleast_1d(np.asarray(segment, dtype=float))
    length = s.shape[-1]
    if length < 1:
        raise ValueError("segment must have at least one sample")
    # l starting at 1 multiplies the standard DFT by a unit phase and
    # rotates bin 0 to bin L; magnitudes are otherwise unchanged.
    half = np.abs(np.fft.rfft(s, axis=-1)) ** 2
    mirrored = half[..., length - length // 2 - 1 : 0 : -1]
    return np.concatenate([half[..., 1:], mirrored, half[..., :1]], axis=-1)


def spectral_moments(psi) -> np.ndarray:
    """Moments g(i) = sqrt(sum_{k=1..L} k^i psi(k)) for i = 0..6, along the last axis.

    Nonnegative and nondecreasing in i, because the spectrum index k starts
    at 1 so k^(i+1) psi >= k^i psi termwise. (..., L) -> (..., 7).
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    k = np.arange(1, psi.shape[-1] + 1, dtype=float)
    # Column i holds k^i, built by repeated multiplication.
    weights = np.cumprod(np.column_stack([np.ones_like(k)] + [k] * 6), axis=1)
    return np.sqrt(psi @ weights)


def _ln(x):
    return np.log(np.maximum(x, LOG_EPS))


def lmf_features(moments) -> np.ndarray:
    """17 log-moment features from spectral moments g(0..6).

    f1..f3: ln g(0), ln g(2), ln g(4).
    f4: ln g(0) - ln|g(0)-g(2)|/2 - ln|g(0)-g(4)|/2. The differences are
        nonpositive by moment monotonicity, so their absolute value is used.
    f5: ln g(2) - ln(g(0) g(4))/2.
    f6: ln g(0) - ln(g(1) g(3))/4.
    f7: ln g(0) - ln(g(2) g(6))/4.
    f8..f17: ln(g(i) g(j))/2 over MOMENT_PAIRS in order.

    Every log argument is floored at LOG_EPS, so the result is always finite.
    Leading axes are batch axes: (..., 7) -> (..., 17).
    """
    g = np.moveaxis(np.asarray(moments, dtype=float), -1, 0)
    i, j = np.array(MOMENT_PAIRS).T
    ln_g0 = _ln(g[0])
    head = [
        ln_g0,
        _ln(g[2]),
        _ln(g[4]),
        ln_g0 - 0.5 * _ln(abs(g[0] - g[2])) - 0.5 * _ln(abs(g[0] - g[4])),
        _ln(g[2]) - 0.5 * _ln(g[0] * g[4]),
        ln_g0 - 0.25 * _ln(g[1] * g[3]),
        ln_g0 - 0.25 * _ln(g[2] * g[6]),
    ]
    pairs = 0.5 * _ln(g[i] * g[j])
    return np.moveaxis(np.concatenate([np.stack(head), pairs]), 0, -1)
