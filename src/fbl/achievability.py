"""Hypothesis-testing (kappa-beta) lower bounds on the maximal coding rate.

The main path draws the squared-sine decoding statistic from its exact law
(Wilks' Lambda with a complex Bartlett factor), takes a conservative
upper quantile as the decision threshold gamma_n, and computes the auxiliary
tail P[prod Beta_j <= gamma_n] exactly for every effective transmit rank,
as a hypoexponential tail summed by uniformization. A separate
receiver-side-information bound for t = 1 reuses the converse module's exact
conditional tail laws.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as scisp

from . import channel as ch
from . import converse as cv
from . import mc
from .errors import ConfigurationError, DomainError

__all__ = [
    "beta_product_log_tail",
    "log_wilks_lambda",
    "sin2_statistic_sampler",
    "rate_lower_bound",
    "csir_kappa_beta_simo",
    "tau_grid",
]

def beta_product_log_tail(n, t_eff, r, log_gamma_n):
    """ln P[prod_{j=1}^r Beta(n - t_eff - j + 1, t_eff) <= gamma_n], exactly.

    -ln of the product is hypoexponential: a sum of t_eff * r independent
    exponentials with integer rates lam_min + nu, lam_min = n - t_eff - r + 1
    and nu = (r - j) + i for j = 1..r, i < t_eff. With x = -ln gamma_n and
    e^{-lam_min x} taken out, the tail is a Poisson(big * x) mixture, over
    the step count m, of the mass that the nonnegative step matrix
    P = I + (T + lam_min I) / big leaves in the phases (uniformization of
    the generator T at big = t_eff + r - 1), so every term is positive. The
    rows e_1 P^m are built by doubling until a closed-form bound on the
    terms past the last row is below 1e-17 of the sum. That bound is added,
    so truncation can only raise the result (docs/DECISIONS.md, section 8).
    """
    if not (n > t_eff + r) or t_eff < 1 or r < 1:
        raise DomainError("requires n > t_eff + r, t_eff >= 1, r >= 1")
    if not (log_gamma_n <= 0.0):
        raise DomainError("gamma_n must be in (0, 1]")
    if log_gamma_n == 0.0:
        return 0.0
    if log_gamma_n == -np.inf:
        return -np.inf
    x = -log_gamma_n
    lam_min = n - t_eff - r + 1.0
    nu = np.add.outer(np.arange(r), np.arange(t_eff)).ravel()
    big = t_eff + r - 1.0
    mu = big * x
    # the superdiagonal rate_k / big of P is factored out: the mass in phase k
    # after m steps is c_k * rows[m, k], and rows[m, k] <= C(m, k - 1)
    log_c = np.concatenate(([0.0], np.cumsum(np.log((lam_min + nu[:-1]) / big))))
    c = np.exp(log_c - log_c.max())
    # past the last row M the Poisson-weighted C(m, k - 1) sum to
    # mu^(k-1)/(k-1)! * P[Pois(mu) > M - k + 1], and P[Pois(mu) > a] = gammainc(a + 1, mu)
    j = np.arange(nu.size)
    moments = np.exp(j * math.log(mu) - scisp.gammaln(j + 1.0))
    step = np.diag(1.0 - nu / big) + np.eye(nu.size, k=1)
    rows = np.eye(1, nu.size)
    while True:
        m = np.arange(rows.shape[0])
        weights = np.exp(m * math.log(mu) - mu - scisp.gammaln(m + 1.0))
        head = c @ (weights @ rows)
        rest = c @ (moments * scisp.gammainc(np.maximum(m[-1] - j + 1, 0), mu))
        if rest <= 1e-17 * head:
            break
        rows = np.concatenate([rows, rows @ step])
        step = step @ step
    return min(0.0, -lam_min * x + log_c.max() + math.log(head + rest))


def log_wilks_lambda(x, diag, low):
    """ln Lambda = ln(prod diag^2 / det(Z Z^H)), Z = [X | L], for a stack of draws.

    X is (..., d, wide); L is lower triangular with positive diagonal `diag`
    (..., d) and strictly lower entries `low` (..., d(d - 1)/2) in row-major
    order. Since det(Z Z^H) = prod diag^2 * det(I + Y Y^H) with Y = L^-1 X,
    Lambda = 1 / det(I + Y Y^H) exactly. Y comes by forward substitution on
    per-row arrays, and the log-det from `channel.log_det_gram`, whose
    pivots 1 + e_j have e_j >= 0: the result is <= 0 with nothing to clip
    (docs/DECISIONS.md, section 6).
    """
    rows = []
    for i in range(x.shape[-2]):
        acc = x[..., i, :]
        for j in range(i):
            acc = acc - low[..., i * (i - 1) // 2 + j, None] * rows[j]
        # the bits of acc / diag: numpy's complex / real multiplies by the reciprocal
        rows.append(acc * (1.0 / diag[..., i, None]))
    return -ch.log_det_gram(np.stack(rows, axis=-2))


def sin2_statistic_sampler(spec, n):
    """Batched exact sampler of the log decoding statistic, given the channel.

    The statistic, the product of squared principal-angle sines between the
    n x r received block and the t_eff-dimensional transmit subspace, is
    Wilks' Lambda det A / det(A + Y1^H Y1), with A ~ CW_r(n - t_eff, I) the
    Gram of the noise-only rows and Y1 the t_eff x r signal block. It has
    the law of det W / det(W + X X^H), where d = min(t_eff, r),
    W ~ CW_d(n - max(t_eff, r), I) and X is d x max(t_eff, r) with CN(0, 1)
    entries plus sqrt(n * gain_i) at (i, i). With W = L L^H (complex
    Bartlett factor) it is `log_wilks_lambda` of X and L
    (docs/DECISIONS.md, section 6). The returned draw(rng, size, gains)
    takes the (size, d) mode gains of `outage.gain_sample` and returns
    ln Lambda of each draw.
    """
    t_eff, r = spec.t, spec.r
    if n <= t_eff + r:
        raise DomainError("requires n > t_eff + r")
    d, wide = min(t_eff, r), max(t_eff, r)
    idx = np.arange(d)

    def draw(rng, size, gains):
        diag = np.sqrt(rng.standard_gamma(n - wide - idx, size=(size, d)))
        x = ch.complex_normal(rng, (size, d, wide))
        x[:, idx, idx] += np.sqrt(n * gains)
        low = ch.complex_normal(rng, (size, d * (d - 1) // 2))
        return log_wilks_lambda(x, diag, low)

    return draw


def tau_grid(n, epsilon):
    """Default tau candidates: {eps/2, eps/10, 1/n}, keeping only tau < eps."""
    cands = [epsilon / 2.0, epsilon / 10.0, 1.0 / n]
    return sorted({t for t in cands if 0.0 < t < epsilon})


def _taus(n, epsilon, tau):
    """The tau values to try: the default grid, which always holds eps/2 and
    eps/10, or the caller's tau. Checks epsilon first, then that tau."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must be in (0, 1)")
    if tau is None:
        return tau_grid(n, epsilon)
    if not (0.0 < tau < epsilon):
        raise ConfigurationError("tau must satisfy 0 < tau < epsilon")
    return [tau]


def rate_lower_bound(spec, n, epsilon, tau, cfg, key, gains):
    """Achievability bound: rate = max(0, (ln tau - tail) / n) in nats.

    Returns (rate, (rate, rate)). tau=None runs the default grid search and
    returns the best rate; the statistic sample is drawn once and reused
    across the taus. Each tau's quantile spends cfg.confidence_delta / |taus|,
    so that the maximum holds at the stated confidence (union bound); a tau
    whose quantile needs more than cfg.samples draws is skipped. `gains` are
    the channel's mode gains (`outage.gain_sample`, under the bound's
    covariance), which a blocklength grid shares; the statistic is drawn
    given them on the stream key `key`, which holds n.
    """
    taus = _taus(n, epsilon, tau)
    delta = cfg.confidence_delta / len(taus)
    sampler = sin2_statistic_sampler(spec, n)
    log_values = np.sort(mc.sample_values(sampler, cfg, key, gains))
    rates = []
    for t in taus:
        try:
            k = mc.quantile_order_indices(cfg.samples, 1.0 - epsilon + t, "upper", delta)
        except ConfigurationError:
            continue  # too few samples for this tau's quantile; its share stays spent
        tail = beta_product_log_tail(n, spec.t, spec.r, float(log_values[k - 1]))
        rates.append(max(0.0, (math.log(t) - tail) / n))
    if not rates:
        raise ConfigurationError("too few samples for the requested quantile confidence")
    best = max(rates)
    return best, (best, best)


def csir_kappa_beta_simo(spec, n, epsilon, tau):
    """Receiver-side-information achievability bound for t = 1.

    The information density under the true and auxiliary channels reduces,
    given the fading gain, to the same scaled noncentral chi-square laws as
    the single-antenna converse statistics, so the type-I failure and the
    type-II error beta are means over the gain law (`converse.SimoTailTable`).
    For each tau the threshold is the largest value where the upper end of
    the mean of the type-I failure stays at or below eps - tau, at or below
    the exact threshold, and beta takes the upper end of its mean: both only
    lower the bound. Returns (rate, (rate, other)), where other takes the
    lower ends of both means at the winning tau, at or above the exact value
    of the bound at that tau.
    """
    taus = _taus(n, epsilon, tau)
    table = cv.SimoTailTable(spec, n, epsilon)
    best = None
    for t in taus:
        try:
            gamma = table.threshold(epsilon - t, "below", "upper")
        except DomainError:
            continue  # the upper end of the type-I failure exceeds eps - tau throughout
        rate = max(0.0, (math.log(t) - table.log_mean_q_l(gamma, "upper")) / n)
        if best is None or rate > best[0]:
            best = (rate, t, gamma)
    if best is None:
        raise ConfigurationError("no tau in the grid was feasible")
    rate, t, gamma = best
    gamma_lo = table.threshold(epsilon - t, "below", "lower", (gamma, table.bracket[1]))
    other = max(0.0, (math.log(t) - table.log_mean_q_l(gamma_lo, "lower")) / n)
    return rate, (rate, other)
