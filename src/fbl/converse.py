"""Meta-converse upper bounds on the maximal coding rate.

Two evaluations are provided: a single-transmit-antenna bound (exact
conditional tail laws given the fading gain, averaged by a bracketing
quadrature over the closed-form gain law, with no sampling) and a bound for
isotropic codebooks (per-mode noncentral chi-square sampling, with
exponentially tilted importance sampling for the deep tail).

Every numerical or statistical shortcut is biased in the direction that
enlarges (weakens) the converse value, so reported numbers remain honest
upper bounds (at the configured confidence, where they sample).
"""

from __future__ import annotations

import math

import numpy as np

from . import channel as ch
from . import mc
from . import outage as og
from . import specfun as sf
from .errors import ConvergenceError, DomainError

__all__ = [
    "gain_cells",
    "SimoTailTable",
    "converse_simo",
    "converse_iso",
    "iso_gains",
    "iso_statistic_sampler",
]

# disjoint substream bases so selection and evaluation never share draws
_SEL_STREAM = 1 << 33
_EVAL_STREAM = 1 << 34


def _tail_end(k, delta, log_mass, side):
    """The point nearest the mean of chi'2_k(delta) where the Chernoff bound
    on its `side` tail beyond the point falls to e^log_mass."""
    mean, end = k + delta, ("lower", "upper").index(side)
    sign = (-1.0, 1.0)[end]

    def log_bound(u):  # the bound at the log-distance -u from the mean
        return float(sf.noncentral_chi2_chernoff(mean * math.exp(-sign * u), k, delta)[end])

    far = 1.0
    while log_bound(-far) > log_mass:
        far *= 2.0
    u = mc.root_find_monotone(lambda u: math.exp(log_bound(u)), math.exp(log_mass), (-far, 0.0), "below")
    return mean * math.exp(-sign * u)


def gain_cells(spec, epsilon, points, tail_nats, n=None):
    """Cells over the closed-form law of the t = 1 gain a = rho |h|^2.

    Returns (gains, prob, (below, above), log_tail): `points` log-spaced gains
    between the points where the Chernoff bound on each tail of the law
    (`channel.gain_law`) is epsilon * e^-tail_nats, and not below 1e-6 / n
    when n is given; the probability of each cell between neighbouring
    points, from the CDF below the median and the survival function above
    it, so that neither difference cancels; the exact mass below the first
    point and above the last; and a bound on the log of that mass.
    """
    scale, dof, nc = ch.gain_law(spec)
    log_mass = math.log(epsilon) - tail_nats
    x_lo, x_hi = _tail_end(dof, nc, log_mass, "lower"), _tail_end(dof, nc, log_mass, "upper")
    if n is not None:
        x_lo = max(x_lo, 1e-6 * scale / (spec.snr * n))
        # all the mass can lie below that floor (a vanishing SNR): the grid
        # then spans one octave above it and holds next to nothing
        if x_hi <= x_lo:
            x_hi = 2.0 * x_lo
    x = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), points))
    x[0], x[-1] = x_lo, x_hi
    cdf, sf_ = sf.noncentral_chi2_cdf_sf(x, dof, nc)
    prob = np.where(cdf[1:] <= 0.5, np.diff(cdf), -np.diff(sf_))
    below, _ = sf.noncentral_chi2_chernoff(x_lo, dof, nc)
    _, above = sf.noncentral_chi2_chernoff(x_hi, dof, nc)
    log_tail = float(np.logaddexp(below, above))
    return spec.snr * x / scale, prob, (float(cdf[0]), float(sf_[-1])), log_tail


def _cell_bounds(values):
    """(lower, upper) bounds on a function over each cell of its grid.

    A cell where the grid values are monotone is bounded by its ends. At a
    turning point of the values (flat runs included, and differences within
    1e-12 of rounding counted as flat) an extremum lies in the cells from
    the last difference before it to the first after it. If the function is
    concave about a maximum, the secant through two neighbouring points lies
    above it outside their cell, so the maximum exceeds those cells' ends by
    at most the larger enclosing difference: the upper bound adds that slack
    about each maximum, and the lower bound takes it off about each (convex)
    minimum. Raises ConvergenceError where a maximum and a minimum share a
    cell, which the grid does not resolve.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        d = np.diff(v)
        flat = np.isnan(d) | (np.abs(d) <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(v[:-1]), np.abs(v[1:]))))
    d = np.where(flat & ~np.isinf(d), 0.0, d)  # NaN: two zeros (-inf in log domain)
    lower, upper = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
    moves = np.flatnonzero(d)
    signs = np.sign(d[moves])
    turns = np.flatnonzero(signs[:-1] != signs[1:])
    if np.any(np.diff(turns) == 1):
        raise ConvergenceError("the gain grid does not resolve the extrema of a conditional tail")
    for i in turns:
        first, last = moves[i], moves[i + 1]
        slack = max(abs(d[first]), abs(d[last]))
        cells = slice(first, last + 1)
        if signs[i] > 0:  # a maximum
            upper[cells] = np.max(upper[cells]) + slack
        else:
            lower[cells] = np.min(lower[cells]) - slack
    return lower, upper


class SimoTailTable:
    """The two steps of a t = 1 bound at blocklength n, as quadratures over the gain law.

    `grid`, `prob` and `log_tail` are the `gain_cells` of GRID points with
    tails of epsilon * e^-TAIL_NATS, not below 1e-6 / n, where the
    noncentralities ~n/a become intractable; `log_tail` bounds the log of
    the mass outside the grid. `q_s` and `log_q_l` are the conditional tails
    at every grid point. `threshold` finds gamma from the mean of
    q_s = P[S_n <= n*gamma | a], and `log_mean_q_l` gives the mean of
    q_l = P[L_n >= n*gamma | a]. The 'lower' end of a mean sums each cell's
    probability times its lower bound (`_cell_bounds`), and 0 outside the
    grid; the 'upper' end the upper bounds, and outside the grid
    min(1, e^(n*gamma)) for q_s and min(1, e^(-n*gamma)) for q_l, which bound
    the tails at every gain (a change of measure, since S_n and L_n are one
    log-likelihood ratio drawn under the two output laws). The ends enclose
    the exact mean and spend no confidence (docs/DECISIONS.md, section 1).
    """

    GRID = 513
    TAIL_NATS = 9.0  # docs/DECISIONS.md, section 1

    def __init__(self, spec, n, epsilon):
        if spec.t != 1:
            raise DomainError("single-transmit-antenna bound requires t = 1")
        if not (0.0 < epsilon < 1.0):
            raise DomainError("epsilon must be in (0, 1)")
        self.n = int(n)
        self.grid, self.prob, _, self.log_tail = gain_cells(spec, epsilon, self.GRID, self.TAIL_NATS, self.n)
        hi = float(np.log1p(self.grid[-1])) + 1.0
        self.bracket = (-hi - 10.0, hi)
        self._means = {}

    def _thr_l(self, gamma):
        """The chi-square threshold of L_n at every grid point; S_n's is (1 + a) times it."""
        return 2.0 * self.n * (np.log1p(self.grid) + 1.0 - gamma) / self.grid

    def q_s(self, gamma):
        """P[S_n <= n*gamma | a] at every grid point."""
        thr = (1.0 + self.grid) * self._thr_l(gamma)
        return sf.noncentral_chi2_sf_batch(thr, 2 * self.n, 2.0 * self.n / self.grid)

    def log_q_l(self, gamma):
        """log P[L_n >= n*gamma | a] at every grid point."""
        delta = 2.0 * self.n * (1.0 + self.grid) / self.grid
        return sf.noncentral_chi2_logcdf_batch(self._thr_l(gamma), 2 * self.n, delta)

    def mean_q_s(self, gamma):
        """(lower, upper) ends of the mean of q_s; cached, as searches share points."""
        if gamma not in self._means:
            q = self.q_s(gamma)
            outside = math.exp(self.log_tail + min(self.n * gamma, 0.0))
            lower, upper = (self.prob @ b for b in _cell_bounds(q))
            self._means[gamma] = (lower, upper + outside)
        return self._means[gamma]

    def threshold(self, budget, side, end, bracket=None):
        """The gamma where the `end` of the mean of q_s meets `budget` on `side`
        (`mc.root_find_monotone`), in `bracket` or else the whole search bracket."""
        i = ("lower", "upper").index(end)
        return mc.root_find_monotone(lambda g: self.mean_q_s(g)[i], budget, bracket or self.bracket, side)

    def log_mean_q_l(self, gamma, end):
        """The log of the `end` ('lower' or 'upper') of the mean of q_l."""
        i = ("lower", "upper").index(end)
        log_sum = float(sf._log_sum_exp(_cell_bounds(self.log_q_l(gamma))[i], b=self.prob))
        return log_sum if i == 0 else float(np.logaddexp(log_sum, self.log_tail + min(-self.n * gamma, 0.0)))


def converse_simo(spec, n, epsilon):
    """Upper bound on the rate of the best blocklength-n code, t = 1.

    With the statistics of blocklength n + 1 (`SimoTailTable`), gamma is the
    smallest value where the lower end of the mean of P[S <= (n+1)*gamma]
    reaches epsilon, and the rate takes the lower end of the mean of
    P[L >= (n+1)*gamma]: both only enlarge the bound. Returns
    (rate, (other, rate)), other taking the upper ends, at or below the
    exact value of the bound.
    """
    if n < 1:
        raise DomainError("requires n >= 1")
    table = SimoTailTable(spec, n + 1, epsilon)
    if table.mean_q_s(table.bracket[1])[0] < epsilon:
        raise DomainError("less than epsilon of the gain law lies above the smallest gain the tails resolve, 1e-6/n")
    gamma = table.threshold(epsilon, "at_least", "lower")
    rate = -table.log_mean_q_l(gamma, "lower") / n
    gamma_up = table.threshold(epsilon, "at_least", "upper", (table.bracket[0], gamma))
    return rate, (-table.log_mean_q_l(gamma_up, "upper") / n, rate)


def iso_gains(spec, cfg, stream_offset):
    """The (selection, evaluation) samples of isotropic mode gains of `converse_iso`.

    Each is the effective eigenvalues of cfg.samples channel draws, shape
    (samples, min(t, r)), from its own channel stream of `stream_offset`,
    which no per-n stream shares: two independent samples that serve every
    n of a grid (docs/DECISIONS.md, section 9).
    """
    return tuple(
        og.gain_sample(spec, ch.Isotropic(), cfg, stream_offset + s)
        for s in (_SEL_STREAM, _EVAL_STREAM)
    )


def _iso_modes(lam):
    """The mask of the nonzero mode gains, and the gains with 1 in place of the zeros."""
    pos = lam > 0.0
    return pos, np.where(pos, lam, 1.0)


def iso_statistic_sampler(spec, n):
    """Batched sampler of S_n/n for isotropic codebooks: one scaled
    noncentral chi-square draw per eigenmode. The returned draw(rng, size,
    lam) takes the mode gains of the channel draws (`iso_gains`)."""

    def draw(rng, size, lam):
        pos, lam_safe = _iso_modes(lam)
        delta = 2.0 * n / lam_safe
        scale = 0.5 * lam_safe / (1.0 + lam_safe)
        x = scale * sf.sample_noncentral_chi2(2 * n, np.where(pos, delta, 0.0), rng)
        contrib = np.where(pos, n * (np.log1p(lam) + 1.0) - x, 0.0)
        return np.sum(contrib, axis=-1) / n

    return draw


_TILT_MAX_STEPS = 64


def _tilt_solve(s, delta, k, c, active):
    """Row-wise exponential tilt theta >= 0 of sum_i s_i chi'2_k(delta_i) with mean c.

    Under the tilt exp(-theta x) the sum has mean
    M(theta) = sum_i s_i (k + delta_i / d_i) / d_i, d_i = 1 + 2 theta s_i,
    which is decreasing and convex in theta. Newton's method from theta = 0
    therefore rises monotonically to the root of M(theta) = c without
    overshooting; a row stops moving once M(theta) <= c in floating point.
    Rows with c >= M(0), and rows not `active`, keep theta = 0. The solve
    stops when no row's step exceeds 1e-15 theta, or after _TILT_MAX_STEPS
    steps; a row cut off there keeps its last iterate, which only costs
    variance (the tilted estimator is unbiased for any theta >= 0). Each
    step works on one array per mode and adds the modes in order, the bits
    of a sum over the last axis of (..., m) arrays; 2 delta_i / d_i is taken
    as 2 (delta_i / d_i), which is exact (docs/DECISIONS.md, section 7).
    """
    modes = [(s[..., i], s[..., i] * s[..., i], delta[..., i]) for i in range(np.shape(s)[-1])]
    theta = np.zeros(np.shape(c))
    for _ in range(_TILT_MAX_STEPS):
        two_theta = 2.0 * theta
        mean = slope = 0.0  # M(theta) and -M'(theta) / 2, summed over the modes in order
        for s_i, s2_i, delta_i in modes:
            d = 1.0 + two_theta * s_i
            q = delta_i / d
            mean = mean + s_i * (k + q) / d
            slope = slope + s2_i * (k + 2.0 * q) / (d * d)
        excess = mean - c
        rising = active & (excess > 0.0)
        step = np.where(rising, excess / np.where(rising, 2.0 * slope, 1.0), 0.0)
        theta = theta + step
        if not np.any(step > 1e-15 * theta):
            break
    return theta


def _iso_log_tail_sampler(spec, n, gamma):
    """Tilted importance sampler of log contributions to P[L_n >= n*gamma].

    Conditional on the channel draw, the event is a left tail of a sum of
    scaled noncentral chi-squares; each row is exponentially tilted to put
    the sum's mean at the threshold (`_tilt_solve`), which keeps the
    estimator's relative variance bounded. Unbiased for any tilt, so the
    tilt solve only affects variance. The returned draw(rng, size, lam)
    takes the mode gains of the channel draws.
    """
    k = 2 * n

    def draw(rng, size, lam):
        pos, lam_safe = _iso_modes(lam)
        s = np.where(pos, 0.5 * lam_safe, 0.0)
        delta = np.where(pos, 2.0 * n * (1.0 + lam_safe) / lam_safe, 0.0)
        c = n * np.sum(np.where(pos, np.log1p(lam) + 1.0, 0.0), axis=-1) - n * gamma
        ok = c > 0.0
        c_safe = np.where(ok, c, 1.0)
        theta = _tilt_solve(s, delta, k, c_safe, ok)

        d = 1.0 + 2.0 * theta[..., None] * s
        x = (s / d) * sf.sample_noncentral_chi2(k, delta / d, rng)
        x = np.where(pos, x, 0.0)
        total = np.sum(x, axis=-1)
        log_w = np.sum(
            np.where(pos, -delta * theta[..., None] * s / d - 0.5 * k * np.log(d), 0.0),
            axis=-1,
        ) + theta * total
        return np.where(ok & (total <= c_safe), log_w, -np.inf)

    return draw


def converse_iso(spec, n, epsilon, cfg, stream_offset, gains):
    """Upper bound on the rate of isotropic codebooks at blocklength n, as
    (rate, (nominal, rate)) with nominal the log-mean estimate at the same
    threshold. The order-statistic threshold and the log-mean bound each
    spend half of cfg.confidence_delta. `gains` are the channel's
    `iso_gains`, which a blocklength grid shares; the statistics are drawn
    given them from the streams of `stream_offset`."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must be in (0, 1)")
    if n < 1:
        raise DomainError("requires n >= 1")
    sel, ev = gains
    values = np.sort(mc.sample_values(iso_statistic_sampler(spec, n), cfg, stream_offset + _SEL_STREAM, sel))
    half = 0.5 * cfg.confidence_delta
    k = mc.quantile_order_indices(cfg.samples, epsilon, "upper", half)
    gamma = float(values[k - 1])
    log_q = mc.sample_values(_iso_log_tail_sampler(spec, n, gamma), cfg, stream_offset + _EVAL_STREAM, ev)
    log_mean, log_lo = mc.log_mean_bound(log_q, half)
    rate = float(-log_lo / n)
    return rate, (float(-log_mean / n), rate)
