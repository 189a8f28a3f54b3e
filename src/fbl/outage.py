"""Water-filling, instantaneous capacity/dispersion, outage probability,
and epsilon-capacity under the isotropic and water-filling input covariances.

Rates are in nats throughout; conversion to bits happens at I/O boundaries.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel as ch
from . import mc
from .errors import ConfigurationError, DomainError

__all__ = [
    "water_fill_batch",
    "mode_gains",
    "gain_sample",
    "capacity_dispersion",
    "capacity_sampler",
    "outage_probability",
    "epsilon_capacity",
]


def water_fill_batch(lam, rho):
    """Vectorized water-filling over a stack of descending eigenvalue rows.

    Returns (v, gamma_bar) with v of the same shape as lam. Rows where the
    water clears no mode (all-zero rows among them) get v = 0 and
    gamma_bar = inf.
    """
    lam = np.asarray(lam, dtype=float)
    pos = lam > 0.0
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=pos)
    cand = (rho + np.cumsum(inv, axis=-1)) / np.arange(1, lam.shape[-1] + 1)
    # a prefix of size k is feasible when the water level clears mode k
    k_act = np.sum((cand > inv) & pos, axis=-1)  # largest feasible prefix
    live = k_act > 0
    gamma_bar = np.where(live, np.take_along_axis(cand, np.maximum(k_act - 1, 0)[..., None], axis=-1)[..., 0], np.inf)
    v = np.where(pos & live[..., None], np.clip(gamma_bar[..., None] - inv, 0.0, None), 0.0)
    return v, gamma_bar


def mode_gains(spec, cov, rng, size):
    """Per-mode SNR gains of `size` channel draws, shape (size, m), m = min(t, r).

    Isotropic: the effective eigenvalues themselves. WaterFill: the
    water-filling powers v times the eigenvalues of the m-square Gram.
    """
    lam = ch.effective_eigenvalues(ch.sample_channel(spec, rng, size), cov, spec)
    if isinstance(cov, ch.WaterFill):
        v, _ = water_fill_batch(lam, spec.snr)
        return v * lam
    return lam


def gain_sample(spec, cov, cfg, key):
    """`mode_gains` of cfg.samples channel draws, shape (samples, m), on the
    stream key `key`, which holds no blocklength: one sample serves every n
    of a grid."""
    return mc.sample_values(lambda rng, size: mode_gains(spec, cov, rng, size), cfg, key)


def capacity_dispersion(gains):
    """Instantaneous capacity C (nats) and dispersion V (nats^2).

    Accepts stacks of per-mode gains of shape (..., m); returns (C, V)
    arrays of shape (...). Inactive modes (gain 0) contribute zero to both.
    """
    g = np.asarray(gains, dtype=float)
    c = np.sum(np.log1p(g), axis=-1)
    active = g > 0.0
    var = np.sum(active, axis=-1) - np.sum(np.where(active, (1.0 + g) ** -2.0, 0.0), axis=-1)
    return c, np.clip(var, 0.0, None)


def capacity_sampler(spec, cov):
    """Batched sampler of the instantaneous capacity C(H) in nats.

    Isotropic input takes ln det(I + (rho/t) G) from `channel.log_det_gram`
    at every min(t, r), without the spectrum; water-filling needs the
    spectrum.
    """

    def draw(rng, size):
        if isinstance(cov, ch.Isotropic):
            return ch.log_det_gram(ch.sample_channel(spec, rng, size), spec.snr / spec.t)
        return np.sum(np.log1p(mode_gains(spec, cov, rng, size)), axis=-1)

    return draw


def outage_probability(spec, cov, rate, cfg, key=()):
    """Monte Carlo estimate of P[C(H) < rate], with its Clopper-Pearson interval.

    Returns (p_hat, (cp_lower, cp_upper)), each end at confidence_delta / 2.
    """
    if not (0.0 <= rate < math.inf):
        raise DomainError(f"rate must be finite and >= 0, got {rate}")
    sampler = capacity_sampler(spec, cov)

    def event(rng, size):
        return sampler(rng, size) < rate

    hits = np.count_nonzero(mc.sample_values(event, cfg, key))
    n = cfg.samples
    half = 0.5 * cfg.confidence_delta
    return hits / n, (mc.cp_lower(hits, n, half), mc.cp_upper(hits, n, half))


def epsilon_capacity(spec, cov, epsilon, cfg, key=()):
    """Empirical epsilon-quantile of C(H) in nats, with an order-statistic CI.

    Returns (value, (ci_lo, ci_hi)), each end at confidence_delta / 2.
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must be in (0, 1)")
    if epsilon * cfg.samples < 50:
        raise ConfigurationError("epsilon * samples < 50: quantile too unstable")
    values = np.sort(mc.sample_values(capacity_sampler(spec, cov), cfg, key))
    n = cfg.samples
    k = max(1, math.ceil(epsilon * n))
    half = 0.5 * cfg.confidence_delta
    k_lo = mc.quantile_order_indices(n, epsilon, "lower", half)
    k_hi = mc.quantile_order_indices(n, epsilon, "upper", half)
    return float(values[k - 1]), (float(values[k_lo - 1]), float(values[k_hi - 1]))
