"""Log-domain special functions.

Everything a bound evaluation needs that could overflow or underflow is kept
in log domain here: incomplete gamma functions and batched noncentral
chi-square tails (including an accurate log of the far-left CDF tail).

All routines are pure and thread-safe, except that `noncentral_chi2_sf_batch`
watches for warnings with `warnings.catch_warnings`, which is process-wide.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import special as sp
from scipy import stats

from .errors import ConvergenceError, DomainError

__all__ = [
    "log_gamma",
    "log_upper_inc_gamma",
    "log_reg_lower_inc_gamma",
    "log_complex_multivariate_gamma",
    "noncentral_chi2_chernoff",
    "noncentral_chi2_sf_batch",
    "noncentral_chi2_logcdf_batch",
    "sample_noncentral_chi2",
    "gaussian_q",
    "gaussian_q_inv",
]

_LN_SQRT_2 = 0.5 * math.log(2.0)
# below this log value gammainc is replaced by its 1F1 form
_LOG_TINY = math.log(1e-250)
# Rows with delta > _LARGE_DELTA_PER_DOF * k use `_chi_quadrature`. Below
# that, Boost (survival function, within 4e-14 up to delta = 1e6) and the
# Poisson series (log-CDF) are accurate and cheap; above it the quadrature
# is, while Boost drifts (4e-12 at delta = 1e10) and then fails, and the
# series grows long (docs/DECISIONS.md, section 5).
_LARGE_DELTA_PER_DOF = 100.0


def log_gamma(a):
    """Natural log of the Gamma function, a > 0."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise DomainError("log_gamma requires a > 0")
    out = sp.gammaln(a)
    return float(out) if out.ndim == 0 else out


def log_reg_lower_inc_gamma(a, x):
    """log P(a, x), the regularized lower incomplete gamma, accurate in the
    far-left tail (values down to e^-1e6 and below).

    Broadcasts over `a` and `x` (a > 0, x >= 0). Where P underflows the
    identity P(a, x) = x^a e^-x / Gamma(a + 1) * 1F1(1; a + 1; x) is used in
    log domain; there x << a, so the 1F1 factor lies in [1, (a + 1) / (a + 1 - x)].
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if np.any(a <= 0) or np.any(x < 0):
        raise DomainError("log_reg_lower_inc_gamma requires a > 0, x >= 0")
    with np.errstate(divide="ignore"):
        out = np.log(np.atleast_1d(sp.gammainc(a, x)))
    deep = (out < _LOG_TINY) & (x > 0.0)
    if np.any(deep):
        ad, xd = np.broadcast_to(a, out.shape)[deep], np.broadcast_to(x, out.shape)[deep]
        out[deep] = ad * np.log(xd) - xd - sp.gammaln(ad + 1.0) + np.log(sp.hyp1f1(1.0, ad + 1.0, xd))
    return float(out[0]) if a.ndim == 0 else out


def _log_upper_cf(a, x, max_iter=100000):
    """log Gamma(a, x) via the Lentz continued fraction, for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / max(b, tiny)
    h = d
    for i in range(1, max_iter):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return a * math.log(x) - x + math.log(h)
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def log_upper_inc_gamma(a, x):
    """Natural log of the (unregularized) upper incomplete gamma Gamma(a, x).

    Series/continued-fraction switching in log domain; accurate for a up to
    ~1e5 including deep tails on either side.
    """
    a = float(a)
    x = float(x)
    if a <= 0 or x < 0:
        raise DomainError("log_upper_inc_gamma requires a > 0, x >= 0")
    if x == 0.0:
        return float(sp.gammaln(a))
    if x < a + 1.0:
        # Q = 1 - P with P < ~0.6 here, so log1p is well conditioned
        logp = log_reg_lower_inc_gamma(a, x)
        return float(sp.gammaln(a) + math.log1p(-math.exp(logp)))
    return _log_upper_cf(a, x)


def log_complex_multivariate_gamma(r, a):
    """log of the complex multivariate gamma function of order r at a."""
    r = int(r)
    if r < 1:
        raise DomainError("order must be a positive integer")
    if a <= r - 1:
        raise DomainError("requires a > r - 1")
    i = np.arange(1, r + 1)
    return float(0.5 * r * (r - 1) * math.log(math.pi) + np.sum(sp.gammaln(a - i + 1.0)))


def noncentral_chi2_chernoff(x, k, delta, side):
    """Vectorized Chernoff exponent: log upper bound on a noncentral chi2 tail.

    side='lower' bounds P[X <= x] (requires x <= k + delta to be nontrivial),
    side='upper' bounds P[X >= x]. Returns 0.0 (trivial bound) where the
    threshold is on the wrong side of the mean.
    """
    x = np.asarray(x, dtype=float)
    k = float(k)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape)
    mean = k + delta
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(
            delta > 0.0,
            (-k + np.sqrt(k * k + 4.0 * delta * np.maximum(x, 0.0))) / (2.0 * np.where(delta > 0, delta, 1.0)),
            x / k,
        )
        u = np.maximum(u, 1e-300)
        s = (u - 1.0) / (2.0 * u)
        expo = delta * s * u + 0.5 * k * np.log(u) - s * x
    if side == "lower":
        out = np.where(x < mean, expo, 0.0)
        out = np.where(x <= 0.0, -np.inf, out)
    elif side == "upper":
        out = np.where(x > mean, expo, 0.0)
    else:
        raise DomainError("side must be 'lower' or 'upper'")
    return np.minimum(out, 0.0)


def _chi_quadrature(x, k, delta, log_cdf):
    """Noncentral chi-square tail from X = (Z + sqrt(delta))^2 + U^2, U ~ chi_{k-1}.

    Given U = u, P[X <= x] = Phi(r - sqrt(delta)) - Phi(-r - sqrt(delta)) with
    r = sqrt(x - u^2). The mean over u is a trapezoid sum; the integrand is
    even in u and analytic, so the sum converges exponentially, and when
    delta >> k it varies slowly over the chi law. Returns the survival
    function, or the log-CDF when `log_cdf`.
    """
    u = np.arange(0.0, math.sqrt(k) + 12.0, 0.25)
    logw = stats.chi.logpdf(u, k - 1)
    logw[0] -= math.log(2.0)  # the trapezoid's half weight at u = 0
    logw -= sp.logsumexp(logw)
    rest = x[:, None] - u**2
    root = np.sqrt(np.maximum(rest, 0.0))
    s = np.sqrt(delta)[:, None]
    z = ((x - delta)[:, None] - u**2) / (root + s)  # r - sqrt(delta), without cancellation
    if not log_cdf:
        return np.where(rest > 0.0, gaussian_q(z) + gaussian_q(root + s), 1.0) @ np.exp(logw)
    with np.errstate(divide="ignore"):
        near = sp.log_ndtr(z)
        log_p = near + np.log1p(-np.exp(sp.log_ndtr(-root - s) - near))
    return sp.logsumexp(np.where(rest > 0.0, log_p, -np.inf) + logw, axis=1)


def _boost_sf(x, k, delta):
    """scipy's (Boost) ncx2.sf, and a mask of the rows whose evaluation warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = stats.ncx2.sf(x, k, delta)
    bad = ~np.isfinite(out)
    if caught:  # find the rows that warned
        for i in range(x.size):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                stats.ncx2.sf(x[i], k, delta[i])
            bad[i] |= bool(caught)
    return out, bad


def noncentral_chi2_sf_batch(x, k, delta):
    """Survival function P[chi'2_k(delta) >= x] for arrays x, delta (common k).

    Absolute error ~1e-12: rows provably within 1e-13 of 0 or 1 (by Chernoff)
    are short-circuited; the rest use scipy's ncx2.sf (Boost), except rows
    with delta > 100 k or whose Boost call warned, which use `_chi_quadrature`.
    """
    x = np.asarray(x, dtype=float)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape).copy()
    out = np.empty_like(x)
    cutoff = math.log(1e-13)
    lower_ch = noncentral_chi2_chernoff(x, k, delta, "lower")
    upper_ch = noncentral_chi2_chernoff(x, k, delta, "upper")
    is_one = lower_ch < cutoff
    is_zero = upper_ch < cutoff
    out[is_one] = 1.0
    out[is_zero] = 0.0
    out[x <= 0.0] = 1.0
    mid = ~(is_one | is_zero) & (x > 0.0)
    large = mid & (delta > _LARGE_DELTA_PER_DOF * k)
    boost = np.nonzero(mid & ~large)[0]
    if boost.size:
        out[boost], bad = _boost_sf(x[boost], k, delta[boost])
        large[boost[bad]] = True
    if np.any(large):
        out[large] = _chi_quadrature(x[large], k, delta[large], log_cdf=False)
    out[mid] = np.clip(out[mid], 0.0, 1.0)
    return out


def _log_cdf_rows(x, k, mu):
    """log P[chi'2_k(2 mu_i) <= x_i] for a batch of rows, common even k.

    The Poisson-mixture terms log w_j + log P(k/2 + j, x/2) are built as a
    (rows x block) array per block of j, starting from j = 0, where the far
    left tail has its mass. A row stops once a block lies more than 60 nats
    below its largest term and decreases, or passes the 1e-14 upper Poisson
    quantile; its terms are summed by a running logsumexp.
    """
    block = 256
    hi = np.where(mu > 0, stats.poisson.isf(1e-14, np.maximum(mu, 1e-300)), -1).astype(np.int64) + 1
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    total = np.full(x.shape, -np.inf)
    best = np.full(x.shape, -np.inf)
    rows = np.arange(x.size)
    start = 0
    while rows.size:
        j = np.arange(start, start + block, dtype=float)
        mu_r = mu[rows, None]
        with np.errstate(invalid="ignore"):
            logw = np.where(mu_r > 0, j * log_mu[rows, None] - mu_r - sp.gammaln(j + 1.0), np.where(j == 0, 0.0, -np.inf))
        terms = logw + log_reg_lower_inc_gamma(0.5 * k + j, 0.5 * x[rows, None])
        terms = np.where(j <= hi[rows, None], terms, -np.inf)
        total[rows] = np.logaddexp(total[rows], sp.logsumexp(terms, axis=1))
        m = np.max(terms, axis=1)
        best[rows] = np.maximum(best[rows], m)
        done = ((m < best[rows] - 60.0) & (terms[:, -1] <= terms[:, 0])) | (start + block > hi[rows])
        rows = rows[~done]
        start += block
    return total


def noncentral_chi2_logcdf_batch(x, k, delta, rel_cutoff=46.0):
    """log P[chi'2_k(delta) <= x] for arrays x, delta (common even k).

    Rows whose Chernoff upper bound falls more than `rel_cutoff` nats below
    the largest row bound are reported as -inf (their contribution to any
    mean over the batch is negligible, and dropping them only understates
    the mean). The rest are evaluated by the log-domain Poisson mixture, or
    by `_chi_quadrature` where delta > 100 k.
    """
    x = np.asarray(x, dtype=float)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), x.shape)
    out = np.full_like(x, -np.inf)
    ch = noncentral_chi2_chernoff(x, k, delta, "lower")
    ch = np.where(x <= 0.0, -np.inf, ch)
    top = float(np.max(ch)) if ch.size else -np.inf
    if not np.isfinite(top):
        return out
    keep = ch >= top - rel_cutoff
    large = keep & (delta > _LARGE_DELTA_PER_DOF * k)
    series = keep & ~large
    out[series] = _log_cdf_rows(x[series], k, 0.5 * delta[series])
    if np.any(large):
        out[large] = _chi_quadrature(x[large], k, delta[large], log_cdf=True)
    return out


def sample_noncentral_chi2(k, delta, rng, size=None):
    """Exact noncentral chi-square sampler: Poisson-mixed central chi-square.

    `k` may be a scalar or array (even, >= 2); `delta` likewise; `rng` is a
    numpy Generator. Returns draws of chi'2_k(delta).
    """
    k = np.asarray(k)
    delta = np.asarray(delta, dtype=float)
    if np.any(k < 2) or np.any(np.asarray(k) % 2 != 0) or np.any(delta < 0):
        raise DomainError("requires even k >= 2, delta >= 0")
    j = rng.poisson(0.5 * delta, size=size)
    shape = 0.5 * k + j
    return 2.0 * rng.standard_gamma(shape)


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
