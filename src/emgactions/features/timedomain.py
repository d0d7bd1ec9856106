"""Time-domain statistics of a segment."""

from __future__ import annotations

import numpy as np

TDS_NAMES = ("mean", "variance", "skewness", "kurtosis")


def tds(segment) -> np.ndarray:
    """Mean, variance, skewness and kurtosis along the last axis.

    Plain population moments (1/L averages, no bias correction). A constant
    segment has zero variance; skewness and kurtosis are defined as 0 there.
    Leading axes are batch axes: (..., L) -> (..., 4).
    """
    s = np.atleast_1d(np.asarray(segment, dtype=float))
    if s.shape[-1] < 1:
        raise ValueError("segment must have at least one sample")
    mu = s.mean(axis=-1)
    d = s - mu[..., None]
    d2 = d * d
    var = d2.mean(axis=-1)
    m3 = (d2 * d).mean(axis=-1)
    m4 = (d2 * d2).mean(axis=-1)
    sd3 = np.sqrt(var) ** 3
    var2 = var**2
    # Zero variance, or a denominator that underflows: treat as constant.
    ok = (sd3 != 0.0) & (var2 != 0.0)
    skew = np.divide(m3, sd3, out=np.zeros_like(m3), where=ok)
    kurt = np.divide(m4, var2, out=np.zeros_like(m4), where=ok)
    return np.stack([mu, var, skew, kurt], axis=-1)
