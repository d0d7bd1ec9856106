"""One-dimensional local binary pattern counts."""

from __future__ import annotations

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
    codes = np.zeros(centers.shape, dtype=np.int64)
    for j in range(window):
        # sample >= mean is sample - mean >= 0: a float difference is zero
        # only for equal operands and never changes sign.
        codes += (views[..., j] >= centers) << j
    below = np.count_nonzero(codes <= threshold, axis=-1)
    return np.stack([below, codes.shape[-1] - below], axis=-1)
