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
    "complex_normal",
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


def complex_normal(rng, shape, scale=math.sqrt(0.5)):
    """(a + ib) * scale, with a and b standard normal arrays of `shape` drawn
    in that order: CN(0, 1) entries at the default scale. The parts of one
    complex array are filled and scaled in place, with no complex
    temporaries."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z *= scale
    return z


def sample_channel(spec, rng, size=1):
    """Draw `size` i.i.d. channel matrices; returns shape (size, t, r)."""
    shape = (size, spec.t, spec.r)
    fading = spec.fading
    if isinstance(fading, Rayleigh):
        return complex_normal(rng, shape)
    if isinstance(fading, Rician):
        k = fading.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (k + 1.0))
        h = complex_normal(rng, shape, sigma * math.sqrt(0.5))
        h += los
        return h
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


def _complex(re, im):
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _gram(h):
    """The lower triangle of H H^H of a stack, as {(i, j): (re, im)} for j <= i.

    Elementwise real arithmetic on one contiguous array per entry of H, over
    the columns in order: re += xr_i xr_j + xi_i xi_j and
    im += xi_i xr_j - xr_i xi_j, from zero. These are the bits of
    einsum("...ik,...jk->...ij", h, conj(h)) (docs/DECISIONS.md, section 7).
    The diagonal's im is 0.0.
    """
    h = np.asarray(h)
    m, k = h.shape[-2:]
    xr = np.moveaxis(h.real, (-2, -1), (0, 1)).copy()
    xi = np.moveaxis(h.imag, (-2, -1), (0, 1)).copy()
    gram = {}
    for i in range(m):
        for j in range(i + 1):
            re = np.zeros(h.shape[:-2])
            im = np.zeros(h.shape[:-2]) if j < i else 0.0
            for c in range(k):
                term = xr[i, c] * xr[j, c]
                term += xi[i, c] * xi[j, c]
                re += term
                if j < i:
                    term = xi[i, c] * xr[j, c]
                    term -= xr[i, c] * xi[j, c]
                    im += term
            gram[i, j] = re, im
    return gram


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
    gram = np.zeros(h.shape[:-1] + (m,), dtype=complex)  # eigvalsh reads the lower triangle
    for (i, j), (re, im) in _gram(h).items():
        gram[..., i, j] = _complex(re, im)
    return np.clip(np.linalg.eigvalsh(gram)[..., ::-1].real, 0.0, None)


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
    h = _wide(h)
    m = h.shape[-2]
    gram = _gram(h)
    e = [scale * gram[j, j][0] for j in range(m)]
    low = {(i, k): (scale * re, scale * im) for (i, k), (re, im) in gram.items() if k < i}
    total = 0.0
    for j in range(m):
        total = total + np.log1p(e[j])
        # the bits of the complex column over the pivot: numpy's complex /
        # real multiplies by the reciprocal
        inv = 1.0 / (1.0 + e[j])
        for i in range(j + 1, m):
            lr, li = low[i, j]
            wr, wi = lr * inv, li * inv
            e[i] = e[i] - (wr * lr + wi * li)
            for k in range(j + 1, i):
                # numpy's complex product, whose bits four real products do not give
                z = _complex(*low[i, k]) - _complex(wr, wi) * np.conj(_complex(*low[k, j]))
                low[i, k] = z.real, z.imag
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
