"""Burg autoregressive spectral estimation and band powers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class OrderTooHighError(ValueError):
    """AR order must be strictly below the segment length."""


class PoleOnGridError(ValueError):
    """AR denominator vanished on the evaluation grid (near-unstable model)."""


class BadPartitionError(ValueError):
    """Band count must divide the spectral grid size."""


@dataclass
class ArModel:
    """All-pole model: x(n) + a_1 x(n-1) + ... + a_nu x(n-nu) = e(n).

    coefficients holds (a_0 = 1, a_1, ..., a_nu) along its last axis;
    noise_variance is the final Burg prediction-error power (>= 0). Leading
    axes, shared by both, index a batch of models.
    """

    coefficients: np.ndarray
    noise_variance: float | np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)


def burg_ar(segment, order: int) -> ArModel:
    """Fit AR coefficients by Burg's lattice recursion along the last axis.

    Minimizes the summed forward and backward prediction-error power at each
    stage; reflection coefficients satisfy |k| <= 1 by Cauchy-Schwarz. An
    all-zero segment (or one predicted perfectly at some stage) degrades
    gracefully: remaining reflection coefficients are 0. Leading axes are
    batch axes, fitted independently: (..., L) gives coefficients of shape
    (..., order + 1) and a noise variance of shape (...).

    Raises:
        OrderTooHighError: order >= segment length.
    """
    x = np.atleast_1d(np.asarray(segment, dtype=float))
    n = x.shape[-1]
    if order < 1:
        raise ValueError("order must be >= 1")
    if order >= n:
        raise OrderTooHighError(f"order {order} needs more than {n} samples")
    a = np.zeros(x.shape[:-1] + (order + 1,))
    a[..., 0] = 1.0
    energy = np.einsum("...l,...l->...", x, x) / n
    # A zero-energy segment keeps a = (1, 0, ..., 0) and zero noise.
    live = energy != 0.0
    f = x[..., 1:]
    b = x[..., :-1]
    for m in range(1, order + 1):
        den = np.einsum("...l,...l->...", f, f) + np.einsum("...l,...l->...", b, b)
        num = np.einsum("...l,...l->...", f, b)
        k = np.divide(-2.0 * num, den, out=np.zeros_like(den), where=live & (den != 0.0))
        a[..., 1 : m + 1] = a[..., 1 : m + 1] + k[..., None] * a[..., m - 1 :: -1]
        energy = np.maximum(energy * (1.0 - k * k), 0.0)
        if m < order:
            kk = k[..., None]
            f, b = f[..., 1:] + kk * b[..., 1:], b[..., :-1] + kk * f[..., :-1]
    return ArModel(a, energy[()])


def ar_psd(model: ArModel, grid_size: int = 100) -> np.ndarray:
    """Power spectral density of an AR model on a uniform half-open grid.

    Evaluates sigma^2 / |A(e^(-j w))|^2 at w_k = pi (k - 1/2) / grid_size,
    k = 1..grid_size. The grid avoids both w = 0 and w = pi. A batch of
    models gives a batch of spectra: (..., order + 1) -> (..., grid_size).

    Raises:
        PoleOnGridError: |A| at some grid point is below the rounding floor
            of the polynomial evaluation, i.e. numerically zero.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    a = model.coefficients
    omega = np.pi * (np.arange(1, grid_size + 1) - 0.5) / grid_size
    phases = np.exp(-1j * np.outer(np.arange(a.shape[-1]), omega))
    denom = np.abs(a @ phases)
    floor = 16.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(a).sum(axis=-1))
    if np.any(denom < floor[..., None]):
        raise PoleOnGridError("AR denominator vanished on the frequency grid")
    return np.asarray(model.noise_variance)[..., None] / denom**2


def band_powers(psd, n_bands: int = 10) -> np.ndarray:
    """Sum a PSD over n_bands contiguous equal-width frequency bands.

    Leading axes are batch axes: (..., K) -> (..., n_bands).

    Raises:
        BadPartitionError: n_bands does not divide the grid size.
    """
    psd = np.atleast_1d(np.asarray(psd, dtype=float))
    size = psd.shape[-1]
    if n_bands < 1 or size % n_bands != 0:
        raise BadPartitionError(f"{n_bands} bands do not partition {size} grid points")
    return psd.reshape(psd.shape[:-1] + (n_bands, size // n_bands)).sum(axis=-1)
