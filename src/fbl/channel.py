"""Fading models, channel sampling, and effective-eigenvalue extraction.

Channel matrices are t x r (transmit rows, receive columns), i.i.d. entries
normalized to unit mean-square. Samplers are batched: they return stacks of
shape (size, t, r) so the Monte Carlo engine can stay vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Rayleigh",
    "Rician",
    "Nakagami",
    "ChannelSpec",
    "WaterFill",
    "Isotropic",
    "sample_channel",
    "gain_law",
    "effective_eigenvalues",
    "gram_eigenvalues",
    "log_det_gram",
]


@dataclass(frozen=True)
class Rayleigh:
    """I.i.d. circularly-symmetric complex Gaussian entries, unit variance."""


@dataclass(frozen=True)
class Rician:
    """Deterministic line-of-sight mean plus Gaussian scatter, E|H_ij|^2 = 1.

    k_factor is the linear (not dB) ratio of LOS to scattered power; the LOS
    term has phase 0 and is shared by all entries.
    """

    k_factor: float

    def __post_init__(self):
        if not (0.0 <= self.k_factor < math.inf):
            raise DomainError(f"k_factor must be finite and >= 0, got {self.k_factor}")


@dataclass(frozen=True)
class Nakagami:
    """|H_ij|^2 ~ Gamma(m, 1/m) (unit mean), independent uniform phase."""

    m_shape: float

    def __post_init__(self):
        if not (0.5 <= self.m_shape < math.inf):
            raise DomainError(f"m_shape must be finite and >= 0.5, got {self.m_shape}")


@dataclass(frozen=True)
class ChannelSpec:
    """Antenna counts, linear SNR, and the fading model."""

    t: int
    r: int
    snr: float
    fading: object = field(default_factory=Rayleigh)

    def __post_init__(self):
        if self.t < 1 or self.r < 1:
            raise DomainError("antenna counts must be >= 1")
        if not (0.0 < self.snr < math.inf):
            raise DomainError(f"snr must be positive and finite (linear scale), got {self.snr}")

    @property
    def m(self):
        return min(self.t, self.r)


@dataclass(frozen=True)
class WaterFill:
    """Per-realization water-filling input covariance (CSIT)."""


@dataclass(frozen=True)
class Isotropic:
    """Q = (rho/t) I_t."""


def sample_channel(spec, rng, size=1):
    """Draw `size` i.i.d. channel matrices; returns shape (size, t, r)."""
    shape = (size, spec.t, spec.r)
    fading = spec.fading
    if isinstance(fading, Rayleigh):
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return h * math.sqrt(0.5)
    if isinstance(fading, Rician):
        k = fading.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (k + 1.0))
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return los + sigma * math.sqrt(0.5) * h
    if isinstance(fading, Nakagami):
        m = fading.m_shape
        power = rng.gamma(m, 1.0 / m, size=shape)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=shape)
        return np.sqrt(power) * np.exp(1j * phase)
    raise DomainError(f"unknown fading model: {fading!r}")


def gain_law(spec):
    """The law of the squared norm |h|^2 of one row of H, as (scale, dof, nc).

    scale * |h|^2 is noncentral chi-square with `dof` degrees of freedom and
    noncentrality `nc`, for the r entries that `sample_channel` draws:
    Rayleigh 2|h|^2 ~ chi2_2r; Rician, with its common LOS phase,
    2(K + 1)|h|^2 ~ chi'2_2r(2rK); Nakagami |h|^2 ~ Gamma(rm, 1/m), so
    2m|h|^2 ~ chi2_2rm. Only t = 1 makes |h|^2 the whole channel gain.
    """
    fading, r = spec.fading, spec.r
    if isinstance(fading, Rayleigh):
        return 2.0, 2.0 * r, 0.0
    if isinstance(fading, Rician):
        k = fading.k_factor
        return 2.0 * (k + 1.0), 2.0 * r, 2.0 * r * k
    if isinstance(fading, Nakagami):
        m = fading.m_shape
        return 2.0 * m, 2.0 * r * m, 0.0
    raise DomainError(f"unknown fading model: {fading!r}")


def _abs2(z):
    return z.real**2 + z.imag**2


def _wide(h):
    """The stack with t <= r: the conjugate of H^H H has the spectrum of H H^H."""
    h = np.asarray(h)
    return np.swapaxes(h, -1, -2) if h.shape[-2] > h.shape[-1] else h


def _gram(h):
    """H H^H of a stack; an elementwise einsum, not one BLAS call per matrix."""
    return np.einsum("...ik,...jk->...ij", h, np.conj(h))


def gram_eigenvalues(h):
    """Descending eigenvalues of the min(t, r)-square Gram of a stack of t x r matrices.

    These are the min(t, r) leading eigenvalues of both H H^H and H^H H.
    One mode: the squared Frobenius norm. Two modes, with x, y the rows of
    the 2 x k matrix and a = |x|^2, d = |y|^2, b = <x, y>:
    lambda_1 = (a + d + sqrt((a - d)^2 + 4|b|^2)) / 2 and
    lambda_2 = det / lambda_1, where det = sum_{j<k} |x_j y_k - x_k y_j|^2
    (Cauchy-Binet) is a sum of squares, so lambda_2 keeps its relative
    accuracy as the channel nears rank one. Three or more modes: LAPACK
    `eigvalsh` on the Gram. Returns shape (..., min(t, r)).
    """
    h = _wide(h)
    m = h.shape[-2]
    if m == 1:
        return np.sum(_abs2(h), axis=-1)
    if m == 2:
        # one pass over the columns with strided views: far cheaper than
        # fancy-indexed pairs at the antenna counts in use (O(k^2) pairs)
        x, y = h[..., 0, :], h[..., 1, :]
        a = d = det = 0.0
        b = 0.0j
        for j in range(h.shape[-1]):
            a = a + _abs2(x[..., j])
            d = d + _abs2(y[..., j])
            b = b + x[..., j] * np.conj(y[..., j])
            for k in range(j + 1, h.shape[-1]):
                det = det + _abs2(x[..., j] * y[..., k] - x[..., k] * y[..., j])
        lam1 = 0.5 * (a + d + np.sqrt((a - d) ** 2 + 4.0 * _abs2(b)))
        lam2 = np.minimum(det / np.where(lam1 > 0.0, lam1, 1.0), lam1)
        return np.stack([lam1, lam2], axis=-1)
    return np.clip(np.linalg.eigvalsh(_gram(h))[..., ::-1].real, 0.0, None)


def log_det_gram(h, scale=1.0):
    """ln det(I + scale * G) in nats, G the min(t, r)-square Gram of each matrix.

    An LDL^H factorization of I + A, A = scale * G, on per-entry arrays:
    the pivots are 1 + e_j, where e_j is the j-th diagonal entry of the
    Schur complement of A, so the log-det is sum_j log1p(e_j). The Schur
    complements of I + (PSD) minus I are PSD, so every e_j >= 0 and log1p
    keeps the relative accuracy of small modes. Elementwise numpy only:
    unlike the stacked LAPACK and BLAS calls, it runs in parallel on the
    chunk pool. Accepts a stack (..., t, r); returns shape (...).
    """
    a = scale * _gram(_wide(h))
    m = a.shape[-1]
    e = [a[..., j, j].real for j in range(m)]
    low = {(i, k): a[..., i, k] for i in range(m) for k in range(i)}
    total = 0.0
    for j in range(m):
        total = total + np.log1p(e[j])
        for i in range(j + 1, m):
            w = low[i, j] / (1.0 + e[j])
            e[i] = e[i] - (w.real * low[i, j].real + w.imag * low[i, j].imag)
            for k in range(j + 1, i):
                low[i, k] = low[i, k] - w * np.conj(low[k, j])
    return total


def effective_eigenvalues(h, cov, spec):
    """Eigenvalues feeding the capacity/dispersion formulas, shape (..., m),
    m = min(t, r), from the m-square Gram of H.

    WaterFill: the eigenvalues themselves (power is allocated downstream);
    the t - r further eigenvalues of H H^H when t > r are zero and carry no
    power. Isotropic: rho/t times the eigenvalues. Accepts a single t x r
    matrix or a stack (..., t, r).
    """
    h = np.asarray(h)
    if h.shape[-2] != spec.t or h.shape[-1] != spec.r:
        raise DomainError("channel dimensions do not match the configured antenna counts")
    if isinstance(cov, WaterFill):
        return gram_eigenvalues(h)
    if isinstance(cov, Isotropic):
        return (spec.snr / spec.t) * gram_eigenvalues(h)
    raise DomainError(f"unknown covariance policy: {cov!r}")
