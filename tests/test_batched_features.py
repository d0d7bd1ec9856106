"""Every feature family on a (P, M, W, L) block equals its 1-D call row by row."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from emgactions.dataset import segment_channel
from emgactions.features.autoregressive import ar_psd, band_powers, burg_ar
from emgactions.features.crosschannel import compute_ics, ics_max_xcorr
from emgactions.features.localbinary import lbp_features
from emgactions.features.spectral import lmf_features, power_spectrum, spectral_moments
from emgactions.features.timedomain import tds

# Batched and 1-D calls may reduce in a different order (BLAS matrix-matrix
# against matrix-vector products), so they agree to a few ulps of each
# output column's magnitude, not bitwise.
RTOL = 1e-12


@st.composite
def blocks(draw):
    """(P, M, N) trials, their (P, M, W, L) segments and the window L.

    One channel is constant and one segment is all zeros, so the zero-variance
    and zero-energy branches run beside ordinary rows.
    """
    p, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    window = draw(st.integers(9, 24))
    n = window * draw(st.integers(1, 3)) + draw(st.integers(0, window - 1))
    x = draw(
        arrays(
            float,
            (p, m, n),
            elements=st.floats(-1e3, 1e3, allow_subnormal=False)
            | st.integers(-500, 500).map(float),
        )
    )
    x[draw(st.integers(0, p - 1)), draw(st.integers(0, m - 1))] = draw(st.floats(-1e3, 1e3))
    segs = segment_channel(x, window).copy()
    w = draw(st.integers(0, segs.shape[2] - 1))
    segs[draw(st.integers(0, p - 1)), draw(st.integers(0, m - 1)), w] = 0.0
    return x, segs, window


def assert_rowwise(family, segs, exact=False):
    batched = np.asarray(family(segs))
    rows = np.array([family(segs[idx]) for idx in np.ndindex(segs.shape[:-1])])
    rows = rows.reshape(batched.shape)
    if exact:
        np.testing.assert_array_equal(batched, rows)
        return
    scale = np.abs(rows).reshape(-1, *rows.shape[segs.ndim - 1 :]).max(axis=0)
    assert np.all(np.abs(batched - rows) <= RTOL * scale)


@settings(max_examples=60, deadline=None)
@given(blocks())
def test_single_channel_families_match_rowwise(block):
    _, segs, _ = block
    assert_rowwise(tds, segs)
    assert_rowwise(power_spectrum, segs)
    assert_rowwise(spectral_moments, power_spectrum(segs))
    assert_rowwise(lambda s: lmf_features(spectral_moments(power_spectrum(s))), segs)
    assert_rowwise(lambda s: burg_ar(s, 4).coefficients, segs)
    assert_rowwise(lambda s: burg_ar(s, 4).noise_variance, segs)
    assert_rowwise(lambda s: band_powers(ar_psd(burg_ar(s, 4), 100), 10), segs)
    assert_rowwise(lbp_features, segs, exact=True)


@settings(max_examples=60, deadline=None)
@given(blocks())
def test_cross_channel_families_match_rowwise(block):
    x, segs, window = block
    assert_rowwise(lambda s: ics_max_xcorr(s, s[..., ::-1]), segs)
    pairs = tuple((i, j) for i in range(1, x.shape[1] + 1) for j in range(i, x.shape[1] + 1))
    batched = compute_ics(x, pairs, window=window)
    rows = np.array([compute_ics(trial, pairs, window=window) for trial in x])
    assert np.all(np.abs(batched - rows) <= RTOL * np.abs(rows).max(axis=0))


def test_zero_segment_keeps_zero_energy_model():
    segs = np.zeros((2, 3, 16))
    segs[1, 2] = np.arange(16.0)
    model = burg_ar(segs, 4)
    assert model.coefficients.shape == (2, 3, 5)
    assert np.array_equal(model.coefficients[0, 0], [1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(model.noise_variance[:, :2], np.zeros((2, 2)))
    assert model.noise_variance[1, 2] > 0.0
