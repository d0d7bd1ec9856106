import math

import numpy as np
import pytest

from emgactions.features.spectral import (
    LMF_COUNT,
    LOG_EPS,
    MOMENT_PAIRS,
    lmf_features,
    power_spectrum,
    spectral_moments,
)


def direct_dft_power(s):
    s = np.asarray(s, dtype=float)
    L = s.size
    psi = np.empty(L)
    for k in range(1, L + 1):
        acc = 0.0 + 0.0j
        for l in range(1, L + 1):
            acc += s[l - 1] * np.exp(-2j * np.pi * l * k / L)
        psi[k - 1] = abs(acc) ** 2
    return psi


def test_impulse_flat_spectrum():
    assert np.allclose(power_spectrum([1, 0, 0, 0]), [1, 1, 1, 1])


def test_constant_dc_lands_in_last_bin():
    psi = power_spectrum([1.0, 1.0, 1.0, 1.0])
    assert psi[3] == pytest.approx(16.0)
    assert np.allclose(psi[:3], 0.0, atol=1e-12)


def test_matches_direct_dft():
    rng = np.random.default_rng(0)
    for _ in range(20):
        L = int(rng.integers(1, 64))
        s = rng.normal(0, 1, L)
        psi = power_spectrum(s)
        ref = direct_dft_power(s)
        assert np.allclose(psi, ref, rtol=1e-9, atol=1e-9)


def test_parseval():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.normal(0, 2, int(rng.integers(1, 128)))
        psi = power_spectrum(s)
        assert psi.sum() / s.size == pytest.approx(float(np.dot(s, s)), rel=1e-9)


def test_moments_flat_spectrum_closed_form():
    g = spectral_moments([1, 1, 1, 1])
    assert g[0] == pytest.approx(2.0)
    assert g[1] == pytest.approx(math.sqrt(10.0))
    assert g[2] == pytest.approx(math.sqrt(30.0))


def test_moments_zero_spectrum():
    assert np.array_equal(spectral_moments(np.zeros(8)), np.zeros(7))


def test_moment_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        psi = rng.uniform(0, 5, int(rng.integers(1, 64)))
        g = spectral_moments(psi)
        assert np.all(np.diff(g) >= -1e-12)
        assert np.all(g >= 0)


def test_lmf_impulse_oracles():
    f = lmf_features(spectral_moments(power_spectrum([1, 0, 0, 0])))
    assert f.shape == (LMF_COUNT,)
    assert f[0] == pytest.approx(math.log(2.0), rel=1e-12)
    assert f[1] == pytest.approx(0.5 * math.log(30.0), rel=1e-12)
    assert f[7] == pytest.approx(0.25 * math.log(300.0), rel=1e-12)


def test_lmf_zero_moments_finite():
    f = lmf_features(np.zeros(7))
    assert np.all(np.isfinite(f))
    assert f[0] == pytest.approx(math.log(LOG_EPS))


def test_lmf_finite_on_any_real_segment():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = rng.normal(0, 10, int(rng.integers(1, 64)))
        f = lmf_features(spectral_moments(power_spectrum(s)))
        assert np.all(np.isfinite(f))


def test_lmf_difference_features_use_magnitude():
    # g(0) <= g(2) always, so f4's log arguments are |g(0)-g(2)| and |g(0)-g(4)|
    g = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    f = lmf_features(g)
    expected = math.log(1.0) - 0.5 * math.log(2.0) - 0.5 * math.log(4.0)
    assert f[3] == pytest.approx(expected, rel=1e-12)


def test_moment_pairs_are_the_ten_ordered_pairs():
    assert len(MOMENT_PAIRS) == 10
    assert MOMENT_PAIRS == tuple(
        (i, j) for i in range(1, 6) for j in range(i + 1, 6)
    )


def complex_fft_power(s):
    # The definition computed from the complex FFT of all L points.
    return np.abs(np.roll(np.fft.fft(s, axis=-1), -1, axis=-1)) ** 2


@pytest.mark.parametrize("length", list(range(1, 71)) + [666, 667])
def test_real_fft_spectrum_matches_complex_fft(length):
    rng = np.random.default_rng(length)
    s = np.concatenate([rng.normal(0, 100, (3, length)), rng.integers(-500, 500, (2, length))])
    psi = power_spectrum(s.reshape(5, 1, length))[:, 0]
    ref = complex_fft_power(s)
    assert psi.shape == ref.shape
    assert np.all(np.abs(psi - ref) <= 1e-12 * ref.max(axis=-1, keepdims=True))
    # Bins k and L - k (1-based) hold the same value, the DC term the last.
    assert np.array_equal(psi[:, :-1], psi[:, -2::-1])
