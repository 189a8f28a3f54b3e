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
    "Fixed",
    "sample_channel",
    "effective_eigenvalues",
    "gram_eigenvalues",
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


@dataclass(frozen=True)
class Fixed:
    """User-supplied t x t Hermitian PSD covariance with trace <= rho."""

    q: np.ndarray

    def validate(self, spec):
        q = np.asarray(self.q)
        if q.shape != (spec.t, spec.t):
            raise DomainError("covariance shape must be t x t")
        if np.linalg.norm(q - q.conj().T) > 1e-10 * max(np.linalg.norm(q), 1.0):
            raise DomainError("covariance must be Hermitian")
        ev = np.linalg.eigvalsh(q)
        if ev.min() < -1e-10 * max(ev.max(), 1.0):
            raise DomainError("covariance must be PSD")
        if np.trace(q).real > spec.snr * (1.0 + 1e-10):
            raise DomainError("covariance trace exceeds the power budget")


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


def _descending_eigvalsh(a):
    vals = np.linalg.eigvalsh(a)
    return vals[..., ::-1]


def gram_eigenvalues(h):
    """Descending eigenvalues of H H^H for a stack of t x r matrices."""
    h = np.asarray(h)
    gram = h @ np.conj(np.swapaxes(h, -1, -2))
    return np.clip(_descending_eigvalsh(gram).real, 0.0, None)


def effective_eigenvalues(h, cov, spec):
    """Eigenvalues feeding the capacity/dispersion formulas.

    WaterFill: eigenvalues of H H^H (power is allocated downstream).
    Isotropic: (rho/t) times the eigenvalues of the min(t, r)-square Gram of H.
    Fixed: top min(t, r) eigenvalues of H^H Q H.
    Accepts a single t x r matrix or a stack (..., t, r); returns (..., m).
    """
    h = np.asarray(h)
    if h.shape[-2] != spec.t or h.shape[-1] != spec.r:
        raise DomainError("channel dimensions do not match the configured antenna counts")
    if isinstance(cov, WaterFill):
        return gram_eigenvalues(h)
    if isinstance(cov, Isotropic):
        small = h if spec.t <= spec.r else np.conj(np.swapaxes(h, -1, -2))
        return (spec.snr / spec.t) * gram_eigenvalues(small)
    if not isinstance(cov, Fixed):
        raise DomainError(f"unknown covariance policy: {cov!r}")
    cov.validate(spec)
    q = np.asarray(cov.q)
    hh = np.conj(np.swapaxes(h, -1, -2))  # r x t
    gram = hh @ q @ h  # r x r
    vals = np.clip(_descending_eigvalsh(gram).real, 0.0, None)
    return vals[..., : spec.m]
