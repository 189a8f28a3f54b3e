"""Log-domain special functions.

Everything a bound evaluation needs that could overflow or underflow is kept
in log domain here: batched noncentral chi-square tails (including an
accurate log of the far-left CDF tail) and their sampler.

All routines are pure and thread-safe.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp
from scipy.special._ufuncs import _ncx2_sf

from .errors import DomainError

__all__ = [
    "noncentral_chi2_chernoff",
    "noncentral_chi2_sf_batch",
    "noncentral_chi2_logcdf_batch",
    "noncentral_chi2_cdf_sf",
    "sample_noncentral_chi2",
    "gaussian_q",
    "gaussian_q_inv",
]

# Survival-function rows with delta > min(_LARGE_DELTA_PER_DOF * k,
# _BOOST_MAX_DELTA) use `_chi_quadrature`: Boost is within 4e-14 up to
# delta = 1e6, then drifts (4e-12 at delta = 1e10) and fails
# (docs/DECISIONS.md, section 5).
_LARGE_DELTA_PER_DOF = 100.0
_BOOST_MAX_DELTA = 1e6
# `_chi_quadrature` works on blocks of this many rows, to bound its memory
_QUAD_ROWS = 64
# It evaluates the far normal tail only at nodes where a bound on it lies
# less than this many nats below the near one: further down, exp of the
# difference underflows (below -745) to exactly 0 and changes no bit
_FAR_NATS = -800.0


def noncentral_chi2_chernoff(x, k, delta):
    """Vectorized Chernoff exponents: log upper bounds on both noncentral chi2 tails.

    Returns (lower, upper), lower bounding P[X <= x] and upper P[X >= x],
    from one saddle-point exponent. Each is 0.0 (the trivial bound) where x
    is on the wrong side of the mean for its tail, and lower is -inf where
    x <= 0.
    """
    x = np.asarray(x, dtype=float)
    k = float(k)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape)
    mean = k + delta
    xp = np.maximum(x, 0.0)
    # the saddle point u = (-k + sqrt(k^2 + 4 delta x)) / (2 delta), in a form
    # that does not cancel when delta x << k^2
    u = np.maximum(2.0 * xp / (k + np.sqrt(k * k + 4.0 * delta * xp)), 1e-300)
    expo = np.minimum(0.5 * delta * (u - 1.0) + 0.5 * k * np.log(u) - 0.5 * (u - 1.0) / u * xp, 0.0)
    lower = np.where(x <= 0.0, -np.inf, np.where(x < mean, expo, 0.0))
    return lower, np.where(x > mean, expo, 0.0)


def _log_sum_exp(v, b=None):
    """log of the sum of b * exp(v) over the last axis, for weights b >= 0.

    Entries with b = 0 count as -inf, and each row is shifted by its maximum
    (by 0 where that is not finite).
    """
    v = np.asarray(v, dtype=float)
    if b is not None:
        v = np.where(b > 0, v, -np.inf)
    v_max = np.max(v, axis=-1, keepdims=True)
    v_max = np.where(np.isfinite(v_max), v_max, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        shifted = np.exp(v - v_max)
        return (np.log(np.sum(shifted if b is None else b * shifted, axis=-1)) + v_max[..., 0])[()]


def _chi_quadrature(x, k, delta):
    """log P[chi'2_k(delta) <= x] from X = (Z + sqrt(delta))^2 + U^2, U ~ chi_{k-1}.

    Given U = u, P[X <= x] = Phi(r - sqrt(delta)) - Phi(-r - sqrt(delta))
    with r = sqrt(x - u^2). The substitution u = sqrt(x) sin(phi), so that
    r = sqrt(x) cos(phi) and du = r dphi, turns the mean over u into an
    integral over phi in [0, phi_max], phi_max = asin(min(1, (sqrt(k) + 12) /
    sqrt(x))), beyond which the chi law has no mass. The integrand is an
    analytic function of sin(phi)^2, so the trapezoid rule on a fixed number
    of nodes converges exponentially. Where phi_max < pi/2 the nodes hold the
    whole chi law, and the sum is divided by its own total weight; the rows
    with phi_max = pi/2 share one set of nodes. Rows are taken in blocks of
    `_QUAD_ROWS`.
    """
    intervals = max(256, math.ceil(4.0 * (math.sqrt(k) + 12.0)))
    frac = np.arange(intervals + 1) / intervals
    log_trap = np.full(intervals + 1, -math.log(intervals))
    log_trap[[0, -1]] -= math.log(2.0)
    log_norm = -(0.5 * (k - 1) - 1.0) * math.log(2.0) - sp.gammaln(0.5 * (k - 1))
    # the nodes of every row with phi_max = pi/2 (np.arcsin(1.0) is exactly
    # 0.5 * math.pi), built once
    half_pi = 0.5 * math.pi
    half_pi_sin2, half_pi_cos = np.sin(half_pi * frac) ** 2, np.cos(half_pi * frac)
    out = np.empty(x.shape)
    for b in range(0, x.size, _QUAD_ROWS):
        xb, db = x[b : b + _QUAD_ROWS, None], delta[b : b + _QUAD_ROWS, None]
        root_x = np.sqrt(xb)
        phi_max = np.arcsin(np.minimum(1.0, (math.sqrt(k) + 12.0) / root_x))
        whole = phi_max[:, 0] < half_pi
        sin2, cos_phi = half_pi_sin2, half_pi_cos
        if np.any(whole):
            sin2, cos_phi = np.tile(sin2, (whole.size, 1)), np.tile(cos_phi, (whole.size, 1))
            own = phi_max[whole] * frac
            sin2[whole], cos_phi[whole] = np.sin(own) ** 2, np.cos(own)
        x_sin2 = xb * sin2
        r = root_x * cos_phi
        t = r + np.sqrt(db)
        # chi_{k-1} log density at u, the Jacobian r and the trapezoid weight
        log_w = 0.5 * sp.xlogy(k - 2, x_sin2) - 0.5 * x_sin2 + log_norm + np.log(r) + np.log(phi_max) + log_trap
        z = ((xb - db) - x_sin2) / t  # r - sqrt(delta), without cancellation
        log_p = sp.log_ndtr(z)
        # log of the bracket, log Phi(z) + log1p(-Phi(-t) / Phi(z)) with
        # t = r + sqrt(delta): log Phi(-t) <= -t^2 / 2 - log 2
        live = (log_p > -np.inf) & (-0.5 * t * t - log_p >= _FAR_NATS)
        near = log_p[live]
        gap = np.minimum(sp.log_ndtr(-t[live]) - near, 0.0)
        with np.errstate(divide="ignore"):
            log_p[live] = near + np.log1p(-np.exp(gap))
        out[b : b + _QUAD_ROWS] = _log_sum_exp(log_w + log_p)
        if np.any(whole):
            out[b : b + _QUAD_ROWS][whole] -= _log_sum_exp(log_w[whole])
    return out


def noncentral_chi2_sf_batch(x, k, delta):
    """Survival function P[chi'2_k(delta) >= x] for arrays x, delta (common k).

    Absolute error ~1e-12: rows provably within 1e-13 of 0 or 1 (by
    Chernoff) are short-circuited, and rows with x <= 0, where the lower
    exponent is -inf, are exactly 1; the rest (NaN rows included) use
    Boost's tail where delta <= min(100 k, 1e6), and `_chi_quadrature`
    above. `_ncx2_sf` is the scipy ufunc that `scipy.stats.ncx2.sf` calls for
    delta != 0; calling it directly keeps `scipy.stats` out of the import.
    It is private, so a test pins it to `scipy.stats.ncx2.sf`.
    """
    x = np.asarray(x, dtype=float)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape)
    out = np.empty_like(x)
    cutoff = math.log(1e-13)
    lower_ch, upper_ch = noncentral_chi2_chernoff(x, k, delta)
    is_one = lower_ch < cutoff
    is_zero = upper_ch < cutoff
    out[is_one] = 1.0
    out[is_zero] = 0.0
    mid = ~(is_one | is_zero)
    large = mid & (delta > min(_LARGE_DELTA_PER_DOF * k, _BOOST_MAX_DELTA))
    boost = mid & ~large
    if np.any(boost):
        out[boost] = _ncx2_sf(x[boost], k, delta[boost])
    if np.any(large):
        out[large] = -np.expm1(_chi_quadrature(x[large], k, delta[large]))
    out[mid] = np.clip(out[mid], 0.0, 1.0)
    return out


def noncentral_chi2_logcdf_batch(x, k, delta):
    """log P[chi'2_k(delta) <= x] for arrays x, delta (common k), by
    `_chi_quadrature`; -inf where x <= 0."""
    x = np.asarray(x, dtype=float)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape)
    out = np.full_like(x, -np.inf)
    pos = x > 0.0
    out[pos] = _chi_quadrature(x[pos], k, delta[pos])
    return out


def noncentral_chi2_cdf_sf(x, k, delta):
    """(P[chi'2_k(delta) <= x], P[chi'2_k(delta) > x]) for an array x > 0.

    Both to relative precision, so that differences of either far from 1 do
    not cancel: delta = 0 takes the regularized incomplete gamma functions,
    0 < delta <= 1e6 Boost's `chndtr` and `_ncx2_sf` (the ufunc that
    `noncentral_chi2_sf_batch` calls). k may be fractional. Past
    delta = 1e6, where Boost drifts and then fails (at delta = 2e12 it is
    off by 0.12 at the mean), the CDF comes from `_chi_quadrature`, to
    relative precision, and the survival function is its complement, to
    absolute precision.
    """
    x = np.asarray(x, dtype=float)
    if delta == 0.0:
        return sp.gammainc(0.5 * k, 0.5 * x), sp.gammaincc(0.5 * k, 0.5 * x)
    if delta <= _BOOST_MAX_DELTA:
        return sp.chndtr(x, k, delta), _ncx2_sf(x, k, delta)
    cdf = np.exp(_chi_quadrature(x, k, np.full(x.shape, float(delta))))
    return cdf, 1.0 - cdf


def sample_noncentral_chi2(k, delta, rng):
    """Exact noncentral chi-square sampler: numpy's `noncentral_chisquare`.

    `k` may be a scalar or array (even, >= 2); `delta` likewise; `rng` is a
    numpy Generator. Returns one draw of chi'2_k(delta) per element of the
    broadcast of k and delta, as chi2_{k-1} + (Z + sqrt(delta))^2.
    """
    k = np.asarray(k)
    delta = np.asarray(delta, dtype=float)
    if np.any(k < 2) or np.any(k % 2 != 0) or np.any(delta < 0):
        raise DomainError("requires even k >= 2, delta >= 0")
    return rng.noncentral_chisquare(k, delta)


def gaussian_q(x):
    """Upper tail of the standard normal distribution."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * sp.erfc(x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def gaussian_q_inv(p):
    """Inverse of gaussian_q on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p >= 1):
        raise DomainError("gaussian_q_inv requires p in (0, 1)")
    out = math.sqrt(2.0) * sp.erfcinv(2.0 * p)
    return float(out) if np.ndim(out) == 0 else out
