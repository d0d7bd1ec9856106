"""One-dimensional local binary pattern counts."""

from __future__ import annotations

import math

import numpy as np

LBP_WINDOW = 8
LBP_THRESHOLD = 127


class WindowTooLongError(ValueError):
    """LBP window exceeds the segment length."""


def lbp_features(segment, window: int = LBP_WINDOW, threshold: int = LBP_THRESHOLD) -> np.ndarray:
    """Count LBP codes at or below / above a threshold along the last axis.

    A window of `window` consecutive samples slides one sample at a time.
    Each position is coded against the window mean: bit j is 1 when sample j
    is >= the mean (ties count as 1), and the code is sum(b_j 2^j). Returns
    (codes <= threshold, codes > threshold); the two counts always sum to
    L - window + 1. Leading axes are batch axes: (..., L) -> (..., 2).

    No code is built: `code <= threshold` is decided bit by bit from the
    most significant down, and every position still tied with the
    threshold counts as at or below it once the threshold's remaining low
    bits are all 1. At the default threshold, 127, that is bit 7 alone.
    The counts are exact for any window length.

    Raises:
        WindowTooLongError: window > segment length.
    """
    x = np.atleast_1d(np.asarray(segment, dtype=float))
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > x.shape[-1]:
        raise WindowTooLongError(f"window {window} exceeds segment length {x.shape[-1]}")
    views = np.lib.stride_tricks.sliding_window_view(x, window, axis=-1)
    centers = views.mean(axis=-1)
    positions = centers.shape[-1]
    # Codes are integers, so code <= threshold is code <= floor(threshold).
    t = math.floor(threshold)
    if t < 0:
        below = np.zeros(centers.shape[:-1], dtype=np.intp)
    elif t >= (1 << window) - 1:
        below = np.full(centers.shape[:-1], positions, dtype=np.intp)
    else:
        below = 0
        tied = True  # the positions whose bits above j all equal the threshold's
        for j in range(window - 1, -1, -1):
            low = (2 << j) - 1
            if t & low == low:
                break
            # sample >= mean is sample - mean >= 0: a float difference is
            # zero only for equal operands and never changes sign.
            bit = views[..., j] >= centers
            if t >> j & 1:
                below = below + np.count_nonzero(tied & ~bit, axis=-1)
                tied = tied & bit
            else:
                tied = tied & ~bit
        below = below + np.count_nonzero(tied, axis=-1)
    return np.stack([below, positions - below], axis=-1)
