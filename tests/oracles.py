"""Reference implementations the batched code in `fbl` is tested against.

The scalar forms of the noncentral chi-square tails and of the
single-antenna conditional tail laws, multiprecision (mpmath) quadratures
of the noncentral chi-square density that referee both tails, the
chi quadrature of that log-CDF with every node evaluated, the
decoding statistic measured on an explicit n x r received block by QR (the
referee of the closed-form sampler), a plain sampler of the isotropic
auxiliary statistic (the referee of the tilted one), a fine-grid
trapezoid reference for the gain-law means of the t = 1 bounds, the Markov and
Chernoff bounds, the rank-one binomial sum and an mpmath matrix
exponential that referee the beta-product tail, water-filling of one
eigenvalue vector, log-domain incomplete and multivariate gamma functions
with the asymptotic converse constants built on them, the Monte Carlo
bounds at one stream offset with their channel gains drawn there, the
complex-array forms of the elementwise kernels (einsum Gram, divided pivots
and rows, axis sums, masked normal error, a + 1j*b draws) and the masked
water-filling whose bits the kernels must give, and small helpers the tests share. Nothing in `fbl`
calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import optimize
from scipy import special as sp
from scipy import stats

from fbl import achievability as ach
from fbl import channel as ch
from fbl import converse as cv
from fbl import mc
from fbl import outage as og
from fbl import specfun as sf
from fbl.errors import ConvergenceError, DomainError


def _poisson_window(mu, tail=1e-14):
    """Index window [lo, hi] containing all but < `tail` Poisson(mu) mass per side."""
    if mu == 0.0:
        return 0, 0
    lo = int(stats.poisson.ppf(tail, mu))
    return max(lo - 1, 0), _poisson_window_top(mu, tail)


def _poisson_window_top(mu, tail=1e-14):
    """Upper end of `_poisson_window`, for mu > 0."""
    return int(stats.poisson.isf(tail, mu)) + 1


def _poisson_logpmf(j, mu):
    if mu == 0.0:
        return np.where(j == 0, 0.0, -np.inf)
    return j * math.log(mu) - mu - sp.gammaln(j + 1.0)


def noncentral_chi2_cdf(x, k, delta):
    """CDF of the noncentral chi-square with k dof and noncentrality delta.

    Poisson mixture of central chi-square CDFs, truncated where the Poisson
    mass outside the window is below 1e-14 on each side of the mode.
    Absolute error <= 1e-10 for k up to 1e5 and delta up to 1e7.
    """
    x = float(x)
    k = int(k)
    delta = float(delta)
    if x < 0 or k < 2 or k % 2 != 0 or delta < 0:
        raise DomainError("requires x >= 0, even k >= 2, delta >= 0")
    if x == 0.0:
        return 0.0
    mu = 0.5 * delta
    if mu == 0.0:
        return float(sp.gammainc(0.5 * k, 0.5 * x))
    lo, hi = _poisson_window(mu)
    if hi - lo > 5_000_000:
        raise ConvergenceError(
            f"noncentral chi2 truncation window too wide: mu={mu}, window={hi - lo}"
        )
    j = np.arange(lo, hi + 1, dtype=float)
    w = np.exp(_poisson_logpmf(j, mu))
    body = sp.gammainc(0.5 * k + j, 0.5 * x)
    val = float(np.dot(w, body))
    # everything below the window has CDF term <= 1, mass < 1e-14
    return min(max(val, 0.0), 1.0)


def noncentral_chi2_logcdf(x, k, delta):
    """log of the noncentral chi-square CDF, accurate deep in the left tail.

    Sums Poisson-mixture terms in log domain starting from j = 0; in the far
    left tail the sum is dominated by small j, so the adaptive scan stops once
    terms fall 60 nats below the running maximum.
    """
    x = float(x)
    k = int(k)
    delta = float(delta)
    if x < 0 or k < 2 or k % 2 != 0 or delta < 0:
        raise DomainError("requires x >= 0, even k >= 2, delta >= 0")
    if x == 0.0:
        return -np.inf
    mu = 0.5 * delta
    if mu == 0.0:
        return float(log_reg_lower_inc_gamma(0.5 * k, 0.5 * x))
    hi = _poisson_window_top(mu)
    block = 256
    best = -np.inf
    chunks = []
    start = 0
    while start <= hi:
        j = np.arange(start, min(start + block, hi + 1), dtype=float)
        terms = _poisson_logpmf(j, mu) + log_reg_lower_inc_gamma(0.5 * k + j, 0.5 * x)
        chunks.append(terms)
        m = float(np.max(terms))
        best = max(best, m)
        if m < best - 60.0 and terms[-1] <= terms[0]:
            break
        start += block
    return float(sp.logsumexp(np.concatenate(chunks)))


@dataclass(frozen=True)
class ConditionalTailParams:
    n: int
    g: float
    rho: float


def simo_conditional_tails(p, gamma):
    """(P[S_n <= n*gamma | G], P[L_n >= n*gamma | G]) in closed form.

    S_n and L_n are the single-antenna hypothesis-testing statistics; given
    the fading gain they are affine in scaled noncentral chi-square variates,
    so both tails reduce to noncentral chi-square CDF evaluations.
    """
    n, g, rho = p.n, p.g, p.rho
    if g < 0:
        raise DomainError("fading gain must be >= 0")
    a = rho * g
    if a == 0.0:
        return (1.0 if 0.0 <= n * gamma else 0.0, 1.0 if 0.0 >= n * gamma else 0.0)
    head = math.log1p(a) + 1.0 - gamma
    thr_s = 2.0 * n * (1.0 + a) * head / a
    thr_l = 2.0 * n * head / a
    k = 2 * n
    if thr_s <= 0.0:
        p_s = 1.0
    else:
        p_s = float(sf.noncentral_chi2_sf_batch(np.array([thr_s]), k, np.array([2.0 * n / a]))[0])
    if thr_l <= 0.0:
        p_l = 0.0
    else:
        p_l = math.exp(noncentral_chi2_logcdf(thr_l, k, 2.0 * n * (1.0 + a) / a))
    return p_s, p_l


def _mp_log_pdf(t, k, delta):
    """log density of the noncentral chi-square, in mpmath precision."""
    nu = mpmath.mpf(k) / 2 - 1
    return (
        -(t + delta) / 2
        + (nu / 2) * mpmath.log(t / delta)
        + mpmath.log(mpmath.besseli(nu, mpmath.sqrt(delta * t)))
        - mpmath.log(2)
    )


def mp_noncentral_chi2_sf(x, k, delta, dps=20):
    """P[chi'2_k(delta) >= x] by tanh-sinh quadrature of the Bessel-form density.

    Breakpoints every two standard deviations; the integral stops 12
    standard deviations above max(x, mean), where the density is below e^-70
    of its peak.
    """
    with mpmath.workdps(dps):
        x, delta = mpmath.mpf(x), mpmath.mpf(delta)
        mean, sd = k + delta, mpmath.sqrt(2 * (k + 2 * delta))
        top = max(x, mean) + 12 * sd
        pts = [x] + [mean + m * sd for m in range(-40, 13, 2) if x < mean + m * sd < top] + [top]
        return float(mpmath.quad(lambda t: mpmath.exp(_mp_log_pdf(t, k, delta)), pts))


def mp_noncentral_chi2_logcdf(x, k, delta, dps=20):
    """log P[chi'2_k(delta) <= x] by tanh-sinh quadrature of the Bessel-form density.

    Deep in the left tail the density decays on the scale 1/slope below x,
    so the breakpoints sit at x minus multiples of that scale.
    """
    with mpmath.workdps(dps):
        x, delta = mpmath.mpf(x), mpmath.mpf(delta)
        sd = mpmath.sqrt(2 * (k + 2 * delta))
        slope = mpmath.diff(lambda t: _mp_log_pdf(t, k, delta), x)
        scale = min(sd, 1 / slope) if slope > 0 else sd
        pts = sorted({max(mpmath.mpf(0), x - m * scale) for m in (256, 64, 16, 8, 4, 2, 1, 0.5, 0)} | {mpmath.mpf(0)})
        density = lambda t: mpmath.exp(_mp_log_pdf(t, k, delta)) if t > 0 else mpmath.mpf(0)  # noqa: E731
        return float(mpmath.log(mpmath.quad(density, pts)))


def every_node_chi_quadrature(x, k, delta):
    """`specfun._chi_quadrature` with every node and every row evaluated alike.

    Each row builds its own nodes, evaluates the far term log Phi(-r - sqrt(delta))
    at every node and takes the total weight of every row, and both sums are
    `specfun._log_sum_exp`. `_chi_quadrature` skips what cannot change a bit
    of this and must return the same bits.
    """
    intervals = max(256, math.ceil(4.0 * (math.sqrt(k) + 12.0)))
    frac = np.arange(intervals + 1) / intervals
    log_trap = np.full(intervals + 1, -math.log(intervals))
    log_trap[[0, -1]] -= math.log(2.0)
    log_norm = -(0.5 * (k - 1) - 1.0) * math.log(2.0) - sp.gammaln(0.5 * (k - 1))
    out = np.empty(x.shape)
    for b in range(0, x.size, sf._QUAD_ROWS):
        xb, db = x[b : b + sf._QUAD_ROWS, None], delta[b : b + sf._QUAD_ROWS, None]
        root_x = np.sqrt(xb)
        phi_max = np.arcsin(np.minimum(1.0, (math.sqrt(k) + 12.0) / root_x))
        sin2 = np.sin(phi_max * frac) ** 2
        r = root_x * np.cos(phi_max * frac)
        s = np.sqrt(db)
        log_w = (
            0.5 * sp.xlogy(k - 2, xb * sin2) - 0.5 * xb * sin2 + log_norm + np.log(r) + np.log(phi_max) + log_trap
        )
        z = ((xb - db) - xb * sin2) / (r + s)
        near = sp.log_ndtr(z)
        gap = np.full(near.shape, -np.inf)
        np.subtract(sp.log_ndtr(-r - s), near, out=gap, where=near > -np.inf)
        with np.errstate(divide="ignore"):
            log_p = near + np.log1p(-np.exp(np.minimum(gap, 0.0)))
        whole = phi_max[:, 0] < 0.5 * math.pi
        out[b : b + sf._QUAD_ROWS] = sf._log_sum_exp(log_w + log_p) - np.where(whole, sf._log_sum_exp(log_w), 0.0)
    return out


class _FineSimoTable(cv.SimoTailTable):
    GRID = 8193
    TAIL_NATS = 30.0


class FineSimoMeans:
    """Reference means over the gain law of the two t = 1 conditional tails.

    The trapezoid rule with the exact cell probabilities on a grid 16 times
    finer than `converse.SimoTailTable`'s, reaching into the gain-law tails
    down to a Chernoff bound of epsilon * e^-30, whose mass is left out.
    Its error is far below the width of the quadrature bracket, so it
    stands in for the exact means.
    """

    def __init__(self, spec, n, epsilon):
        self.table = _FineSimoTable(spec, n, epsilon)

    def mean_q_s(self, gamma):
        q = self.table.q_s(gamma)
        return float(self.table.prob @ (0.5 * (q[:-1] + q[1:])))

    def log_mean_q_l(self, gamma):
        v = self.table.log_q_l(gamma)
        return float(sp.logsumexp(np.logaddexp(v[:-1], v[1:]) - math.log(2.0), b=self.table.prob))

    def threshold(self, budget, side):
        return mc.root_find_monotone(self.mean_q_s, budget, self.table.bracket, side)

    def converse(self, n, epsilon):
        """The converse at blocklength n (statistics of n + 1) on the reference means."""
        return -self.log_mean_q_l(self.threshold(epsilon, "at_least")) / n

    def kappa_beta(self, n, epsilon, tau):
        """The receiver-side-information bound at one tau on the reference means."""
        gamma = self.threshold(epsilon - tau, "below")
        return max(0.0, (math.log(tau) - self.log_mean_q_l(gamma)) / n)


def fine_normal_rate(spec, n, epsilon):
    """Reference t = 1 normal-approximation rate R0 + ln(n)/(2n), R0 the root of
    E_a[Q((C(a) - R0) / sqrt(V(a)/n))] = epsilon over the gain law of a = rho |h|^2.

    The trapezoid rule with the exact cell probabilities on the grid of
    `FineSimoMeans` (16 times finer than `converse.SimoTailTable`'s, tails
    down to a Chernoff bound of epsilon * e^-30, whose mass is left out),
    without the 1e-6/n floor, with `scipy.stats.norm.sf` for Q and Brent's
    method for the root.
    """
    gains, prob, _, _ = cv.gain_cells(spec, epsilon, _FineSimoTable.GRID, _FineSimoTable.TAIL_NATS)
    c = np.log1p(gains)
    sigma = np.sqrt(-np.expm1(-2.0 * c) / n)  # V = 1 - (1 + a)^-2

    def excess(r):
        q = stats.norm.sf((c - r) / sigma)
        return prob @ (0.5 * (q[:-1] + q[1:])) - epsilon

    # Q(15) < 4e-51 at every node below the bracket, and 1 - Q(15) above it
    width = 15.0 * float(np.max(sigma))
    r0 = optimize.brentq(excess, c[0] - width, c[-1] + width, xtol=1e-15, rtol=1e-15)
    return r0 + math.log(n) / (2.0 * n)


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b): the Beta(a, b) CDF at x."""
    if not (0.0 <= x <= 1.0) or a <= 0 or b <= 0:
        raise DomainError("reg_inc_beta requires 0 <= x <= 1, a > 0, b > 0")
    return float(sp.betainc(a, b, x))


def hermitian_eigenvalues(a, rtol=1e-10):
    """Descending real eigenvalues of a Hermitian matrix.

    Raises DomainError if the input is not Hermitian within `rtol` relative
    to its Frobenius norm.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("expected a square matrix")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.conj().T) > rtol * max(scale, 1.0):
        raise DomainError("matrix is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh(a)
    return vals[::-1].copy()


def subspace_sin2(a, b, rank_rtol=1e-12):
    """Product of squared principal-angle sines between span(a) and span(b).

    Both inputs are orthonormalized by Householder QR; the result is
    det(I - M M^H) with M the smaller-dimension cross-Gram of the bases.
    """
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    if a.shape[0] < a.shape[1] or b.shape[0] < b.shape[1] or a.shape[0] != b.shape[0]:
        raise DomainError("expected tall matrices with a common row dimension")
    qa, ra = np.linalg.qr(a)
    qb, rb = np.linalg.qr(b)
    for r in (ra, rb):
        d = np.abs(np.diag(r))
        if np.any(d <= rank_rtol * max(d.max(), 1.0)):
            raise DomainError("rank-deficient input")
    m = qa.conj().T @ qb
    if m.shape[0] <= m.shape[1]:
        g = np.eye(m.shape[0]) - m @ m.conj().T
    else:
        g = np.eye(m.shape[1]) - m.conj().T @ m
    val = float(np.linalg.det(g).real)
    return min(max(val, 0.0), 1.0)


def qr_sin2_sampler(spec, cov, n):
    """Batched decoding statistic from an explicit n x r received block.

    Draws the block (CN(0, 1) entries plus sqrt(n * gain_i) at (i, i), with
    the gains of a channel drawn per chunk, as in `plain_sin2_sampler`),
    orthonormalizes it by QR and takes det(I - M M^H) with M the top t_eff
    rows of the basis. O(n r^2) per draw.
    """
    t_eff, r = spec.t, spec.r
    if n <= t_eff + r:
        raise DomainError("requires n > t_eff + r")

    def draw(rng, size):
        m_eff = spec.m
        gains = og.mode_gains(spec, cov, rng, size)
        y = rng.standard_normal((size, n, r)) + 1j * rng.standard_normal((size, n, r))
        y *= math.sqrt(0.5)
        idx = np.arange(m_eff)
        y[:, idx, idx] += np.sqrt(n * gains)
        q, _ = np.linalg.qr(y)
        m_top = q[:, :t_eff, :]
        if t_eff <= r:
            g = np.eye(t_eff) - m_top @ np.conj(np.swapaxes(m_top, -1, -2))
        else:
            g = np.eye(r) - np.conj(np.swapaxes(m_top, -1, -2)) @ m_top
        return np.clip(np.linalg.det(g).real, 0.0, 1.0)

    return draw


def plain_sin2_sampler(spec, cov, n):
    """Batched decoding statistic Lambda (not its log) of `ach.sin2_statistic_sampler`,
    with the channel of each draw taken from the chunk's own stream: the law
    of the statistic over the fading, for tests of that law."""
    draw = ach.sin2_statistic_sampler(spec, n)

    def plain(rng, size):
        gains = og.mode_gains(spec, cov, rng, size)
        return np.exp(draw(rng, size, gains))

    return plain


def wilks_lambda_det(x, diag, low):
    """prod diag^2 / det(Z Z^H), Z = [X | L], with LAPACK `det` of the d x d
    Gram: the referee of `ach.log_wilks_lambda` (which returns its log),
    with the same arguments."""
    d = x.shape[-2]
    ell = np.zeros(x.shape[:-1] + (d,), dtype=complex)
    ell[..., np.arange(d), np.arange(d)] = diag
    ell[(..., *np.tril_indices(d, -1))] = low
    z = np.concatenate([x, ell], axis=-1)
    gram = z @ np.conj(np.swapaxes(z, -1, -2))
    return np.prod(diag**2, axis=-1) / np.linalg.det(gram).real


def sample_sin2_statistic(spec, cov, n, rng):
    """One draw of the decoding statistic (scalar convenience wrapper)."""
    return float(plain_sin2_sampler(spec, cov, n)(rng, 1)[0])


def gamma_n_ach(spec, cov, n, epsilon, tau, cfg, stream_offset=0):
    """Conservative threshold: P[statistic <= gamma_n] >= 1 - eps + tau w.h.p."""
    ach._taus(n, epsilon, tau)
    sampler = plain_sin2_sampler(spec, cov, n)
    values = np.sort(mc.sample_values(sampler, cfg, stream_offset + ach._STAT_STREAM))
    k = mc.quantile_order_indices(cfg.samples, 1.0 - epsilon + tau, "upper", cfg.confidence_delta)
    return float(values[k - 1])


def kappa_beta_rate(spec, cov, n, epsilon, tau, cfg):
    """`ach.rate_lower_bound` at stream offset 0, given the `og.gain_sample` drawn there."""
    return ach.rate_lower_bound(spec, n, epsilon, tau, cfg, 0, og.gain_sample(spec, cov, cfg, 0))


def converse_iso_rate(spec, n, epsilon, cfg):
    """`cv.converse_iso` at stream offset 0, given the `cv.iso_gains` drawn there."""
    return cv.converse_iso(spec, n, epsilon, cfg, 0, cv.iso_gains(spec, cfg, 0))


def iso_aux_statistic_sampler(spec, n):
    """Batched plain sampler of L_n/n for isotropic codebooks, one scaled
    noncentral chi-square draw per eigenmode: the referee of the tilted
    sampler of `conv-iso`."""

    def draw(rng, size):
        lam = og.mode_gains(spec, ch.Isotropic(), rng, size)
        pos, lam_safe = cv._iso_modes(lam)
        delta = 2.0 * n * (1.0 + lam_safe) / lam_safe
        x = 0.5 * lam_safe * sf.sample_noncentral_chi2(2 * n, np.where(pos, delta, 0.0), rng)
        contrib = np.where(pos, n * (np.log1p(lam) + 1.0) - x, 0.0)
        return np.sum(contrib, axis=-1) / n

    return draw


# Referees of `ach.beta_product_log_tail`: the bounds it replaced, the
# exact rank-one form it replaced, and a multiprecision matrix exponential.


def markov_log_tail(n, t_eff, r, log_gamma_n):
    """Closed-form Markov bound on ln P[prod Beta_j <= gamma_n]."""
    return min(0.0, r * t_eff * math.log(n) + (n - t_eff - r) * log_gamma_n)


def chernoff_log_tail(n, t_eff, r, log_gamma_n):
    """Chernoff bound on ln P[prod Beta_j <= gamma_n], minimized over the tilt.

    Uses E[Beta(a, b)^-s] = Gamma(a - s) Gamma(a + b) / (Gamma(a - s + b) Gamma(a)).
    """
    a_j = n - t_eff - np.arange(1, r + 1) + 1.0

    def objective(alpha):
        return float(
            alpha * log_gamma_n
            + np.sum(
                sp.gammaln(a_j - alpha)
                + sp.gammaln(a_j + t_eff)
                - sp.gammaln(a_j - alpha + t_eff)
                - sp.gammaln(a_j)
            )
        )

    hi = n - t_eff - r + 1.0
    res = optimize.minimize_scalar(
        objective, bounds=(1e-9, hi - 1e-9), method="bounded", options={"xatol": 1e-10}
    )
    return min(0.0, float(res.fun))


def log_beta_tail_int_b(log_x, a, b):
    """ln I_x(a, b) for integer b, exact via the binomial-tail expansion.

    For t_eff = 1 the beta product is Beta(n - r, r) in law, so this is
    ln P[prod Beta_j <= x] with a = n - r, b = r.
    """
    if log_x >= 0.0:
        return 0.0
    one_minus = -math.expm1(log_x)
    log_1mx = math.log(one_minus) if one_minus > 0 else -np.inf
    nn = a + b - 1
    k = np.arange(b)
    terms = (
        sp.gammaln(nn + 1.0)
        - sp.gammaln(a + k + 1.0)
        - sp.gammaln(b - k)
        + (a + k) * log_x
        + (b - 1 - k) * log_1mx
    )
    return float(sp.logsumexp(terms))


def mp_beta_product_log_tail(n, t_eff, r, log_gamma_n, dps=80):
    """ln P[prod Beta_j <= gamma_n] as an mpmath matrix exponential.

    -ln of the product is hypoexponential: phases with rates
    n - t_eff - j + 1 + i (j = 1..r, i < t_eff) passed in turn, so the tail
    is the row sum e_1^T exp(T x) 1 of the bidiagonal generator T at
    x = -ln gamma_n. T has nonnegative off-diagonal entries, so every
    squaring in mpmath's scaled Taylor `expm` adds positive terms.
    """
    rates = [n - t_eff - j + 1 + i for j in range(1, r + 1) for i in range(t_eff)]
    k = len(rates)
    with mpmath.workdps(dps):
        gen = mpmath.zeros(k, k)
        for p, rate in enumerate(rates):
            gen[p, p] = -rate
            if p + 1 < k:
                gen[p, p + 1] = rate
        e = mpmath.expm(gen * -mpmath.mpf(log_gamma_n))
        return float(mpmath.log(mpmath.fsum(e[0, q] for q in range(k))))


# Water-filling for one eigenvalue vector, through `og.water_fill_batch`.


@dataclass(frozen=True)
class PowerAllocation:
    """Per-eigenmode powers v and the water level gamma_bar."""

    v: np.ndarray
    gamma_bar: float
    outage_certain: bool = False


def water_fill(eigs, rho):
    """Water-filling power allocation for one descending eigenvalue vector."""
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise DomainError("expected a 1-D eigenvalue vector")
    if np.any(np.diff(lam) > 0) or np.any(lam < 0):
        raise DomainError("eigenvalues must be nonnegative and descending")
    if rho <= 0:
        raise DomainError("rho must be positive")
    v, gamma_bar = og.water_fill_batch(lam[None, :], rho)
    certain = not np.any(lam > 0)
    return PowerAllocation(v=v[0], gamma_bar=float(gamma_bar[0]), outage_certain=certain)


# Log-domain gamma functions and the asymptotic converse constants of the
# property tests (criterion 8).

# below this log value gammainc is replaced by its 1F1 form
_LOG_TINY = math.log(1e-250)


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


def _log_bracket(p, x):
    """log( x^p e^{-x} + Gamma(p, x) ), handling x = 0."""
    first = -np.inf if x == 0.0 else p * math.log(x) - x
    return float(np.logaddexp(first, log_upper_inc_gamma(p, x)))


def log_c_csirt(spec, n, cfg, stream_offset=0):
    """log of the CSIRT converse constant at blocklength n (Monte Carlo mean)."""
    if n < 1:
        raise DomainError("requires n >= 1")
    m = spec.m
    bracket = _log_bracket(float(n), float(n - 1)) - log_gamma(float(n))

    def det_sampler(rng, size):
        h = ch.sample_channel(spec, rng, size)
        gram = h @ np.conj(np.swapaxes(h, -1, -2))
        eye = np.eye(spec.t)
        return np.linalg.det(eye + spec.snr * gram).real

    vals = mc.sample_values(det_sampler, cfg, stream_offset)
    return float(m * bracket + math.log(np.mean(vals)))


def log_c_csir(spec, n, cfg, stream_offset=0):
    """log of the CSIR converse constant at blocklength n (Monte Carlo mean)."""
    r = spec.r
    if n < r:
        raise DomainError("requires n >= r")
    expo = ((r + 1) ** 2) // 4

    def moment_sampler(rng, size):
        h = ch.sample_channel(spec, rng, size)
        fro2 = np.sum(np.abs(h) ** 2, axis=(-2, -1))
        return (1.0 + spec.snr * fro2) ** expo

    vals = mc.sample_values(moment_sampler, cfg, stream_offset)
    total = (
        r * (r - 1) * math.log(math.pi)
        - log_complex_multivariate_gamma(r, float(n))
        - log_complex_multivariate_gamma(r, float(r))
        + math.log(np.mean(vals))
    )
    for i in range(1, r + 1):
        total += _log_bracket(float(n + r - 2 * i + 1), float(n + r - 2 * i))
    return float(total)


# The complex-array forms of the elementwise kernels: `fbl` now gives their
# bits from real arrays, and the tests compare the two under np.array_equal.


def einsum_gram(h):
    """H H^H of a stack by an elementwise einsum."""
    return np.einsum("...ik,...jk->...ij", h, np.conj(h))


def einsum_log_det_gram(h, scale=1.0):
    """The LDL^H log-det of `channel.log_det_gram` on the einsum Gram, with
    complex pivot columns divided by the pivot."""
    a = scale * einsum_gram(ch._wide(h))
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


def einsum_gram_eigenvalues(h):
    """Descending eigenvalues of the einsum Gram of a wide stack, by `eigvalsh`."""
    return np.clip(np.linalg.eigvalsh(einsum_gram(ch._wide(h)))[..., ::-1].real, 0.0, None)


def divided_log_wilks_lambda(x, diag, low):
    """`ach.log_wilks_lambda` with complex rows divided by the diagonal and
    the einsum log-det."""
    rows = []
    for i in range(x.shape[-2]):
        acc = x[..., i, :]
        for j in range(i):
            acc = acc - low[..., i * (i - 1) // 2 + j, None] * rows[j]
        rows.append(acc / diag[..., i, None])
    return -einsum_log_det_gram(np.stack(rows, axis=-2))


def axis_sum_tilt_solve(s, delta, k, c, active):
    """`converse._tilt_solve` on (..., m) arrays, with the modes summed by
    np.sum over the last axis."""
    theta = np.zeros(np.shape(c))
    for _ in range(cv._TILT_MAX_STEPS):
        d = 1.0 + 2.0 * theta[..., None] * s
        excess = np.sum(s * (k + delta / d) / d, axis=-1) - c
        slope = -2.0 * np.sum(s * s * (k + 2.0 * delta / d) / (d * d), axis=-1)
        rising = active & (excess > 0.0)
        step = np.where(rising, excess / np.where(rising, -slope, 1.0), 0.0)
        theta = theta + step
        if not np.any(step > 1e-15 * theta):
            break
    return theta


def masked_outage_cdf(model, rate, n):
    """`NormalApprox.outage_cdf` with the nodes where V = 0 masked: they count
    1, 1/2 or 0 as C is below, at or above the rate."""
    sigma = np.sqrt(model.v / n)
    positive = sigma > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(positive, (model.c - rate) / np.where(positive, sigma, 1.0), 0.0)
    terms = np.where(
        positive,
        sf.gaussian_q(z),
        np.where(model.c < rate, 1.0, np.where(model.c == rate, 0.5, 0.0)),
    )
    return float(np.mean(terms)) if model.weights is None else float(model.weights @ terms)


def sum_complex_normal(rng, shape):
    """CN(0, 1) entries as (a + 1j * b) * sqrt(1/2)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def sum_sample_channel(spec, rng, size=1):
    """`channel.sample_channel` with the Gaussian entries formed as a + 1j * b."""
    shape = (size, spec.t, spec.r)
    fading = spec.fading
    if isinstance(fading, ch.Rayleigh):
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return h * math.sqrt(0.5)
    if isinstance(fading, ch.Rician):
        k = fading.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (k + 1.0))
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return los + sigma * math.sqrt(0.5) * h
    return ch.sample_channel(spec, rng, size)


# The earlier form of `outage.water_fill_batch`, whose bits the one-mask
# form must give.


def masked_water_fill_batch(lam, rho):
    """`outage.water_fill_batch` with inf-valued inverses of the zero modes,
    each masked by `isfinite`, and a separate pass over the rows with no
    active mode."""
    lam = np.asarray(lam, dtype=float)
    m = lam.shape[-1]
    with np.errstate(divide="ignore"):
        inv = np.where(lam > 0.0, 1.0 / np.where(lam > 0.0, lam, 1.0), np.inf)
    csum = np.cumsum(np.where(np.isfinite(inv), inv, 0.0), axis=-1)
    k = np.arange(1, m + 1, dtype=float)
    cand = (rho + csum) / k
    feasible = (cand > inv) & (lam > 0.0)
    k_act = np.sum(feasible, axis=-1)
    any_active = k_act > 0
    idx = np.maximum(k_act - 1, 0)
    gamma_bar = np.take_along_axis(cand, idx[..., None], axis=-1)[..., 0]
    gamma_bar = np.where(any_active, gamma_bar, np.inf)
    diff = np.where(np.isfinite(inv), gamma_bar[..., None], 0.0) - np.where(np.isfinite(inv), inv, 0.0)
    v = np.clip(diff, 0.0, None)
    v = np.where(any_active[..., None], v, 0.0)
    return v, gamma_bar
