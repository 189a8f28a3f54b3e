"""Meta-converse upper bounds on the maximal coding rate.

Two evaluations are provided: a semi-analytic single-transmit-antenna bound
(exact conditional tail laws given the fading gain, Monte Carlo only over the
gain) and a bound for isotropic codebooks (per-mode noncentral chi-square
sampling, with exponentially tilted importance sampling for the deep tail).

Every statistical shortcut is biased in the direction that enlarges
(weakens) the converse value, so reported numbers remain honest upper
bounds at the configured confidence.
"""

from __future__ import annotations

import math

import numpy as np

from . import channel as ch
from . import mc
from . import outage as og
from . import specfun as sf
from .errors import DomainError

__all__ = [
    "SimoTailTable",
    "SimoTwoStep",
    "converse_simo",
    "converse_iso",
    "iso_gains",
    "iso_statistic_sampler",
]

# disjoint substream bases so selection and evaluation never share draws
_SEL_STREAM = 1 << 33
_EVAL_STREAM = 1 << 34


class SimoTailTable:
    """Conditional tails over a sample of fading gains, grid-interpolated.

    The maps a -> P[S <= n*gamma | a] and a -> log P[L >= n*gamma | a] are
    smooth in log a, so they are evaluated exactly on a 513-point log-spaced
    grid spanning the sample and interpolated onto the sample.
    """

    GRID = 513

    def __init__(self, n, a_samples):
        a = np.asarray(a_samples, dtype=float)
        if np.any(a < 0):
            raise DomainError("fading gains must be >= 0")
        self.n = int(n)
        self.a = a
        # gains with n*a below ~1e-6 are indistinguishable from zero: both
        # statistics are O(n*a) with spread O(sqrt(n*a)), so they collapse to
        # the exact a = 0 point mass well below any reported tolerance (and
        # their noncentralities ~n/a would be numerically intractable)
        pos = a > 1e-6 / self.n
        self._log_a = np.log(np.where(pos, a, 1.0))
        self._pos = pos
        lo, hi = (float(np.min(a[pos])), float(np.max(a[pos]))) if np.any(pos) else (1.0, 1.0)
        if hi <= lo:
            grid = np.array([lo])
        else:
            grid = np.exp(np.linspace(math.log(lo), math.log(hi), self.GRID))
            grid[0], grid[-1] = lo, hi
        self.grid = grid
        self._log_grid = np.log(grid)
        # linear interpolation is linear in the grid values, so a sum of
        # q_s over the sample is a dot product with per-grid-point weights
        size = grid.size
        if size == 1:
            self._weights = np.array([float(np.count_nonzero(pos))])
            return
        log_a = self._log_a[pos]
        idx = np.clip(np.searchsorted(self._log_grid, log_a, side="right") - 1, 0, size - 2)
        frac = np.clip((log_a - self._log_grid[idx]) / np.diff(self._log_grid)[idx], 0.0, 1.0)
        self._weights = np.bincount(idx, 1.0 - frac, size) + np.bincount(idx + 1, frac, size)

    def _grid_thresholds(self, gamma):
        n = self.n
        head = np.log1p(self.grid) + 1.0 - gamma
        thr_s = 2.0 * n * (1.0 + self.grid) * head / self.grid
        thr_l = 2.0 * n * head / self.grid
        return thr_s, thr_l

    def _grid_q_s(self, gamma):
        n = self.n
        thr_s, _ = self._grid_thresholds(gamma)
        return np.where(
            thr_s <= 0.0,
            1.0,
            sf.noncentral_chi2_sf_batch(np.maximum(thr_s, 0.0), 2 * n, 2.0 * n / self.grid),
        )

    def q_s(self, gamma):
        """P[S_n <= n*gamma | a_i] for every sample, via grid interpolation."""
        out = np.interp(self._log_a, self._log_grid, self._grid_q_s(gamma))
        out[~self._pos] = 1.0 if gamma >= 0.0 else 0.0
        return out

    def sum_q_s(self, gamma):
        """The sum of `q_s(gamma)` over the sample, in O(grid) work."""
        zero_gain = self.a.size - np.count_nonzero(self._pos)
        return float(self._weights @ self._grid_q_s(gamma)) + (zero_gain if gamma >= 0.0 else 0.0)

    def log_q_l(self, gamma):
        """log P[L_n >= n*gamma | a_i] for every sample."""
        n = self.n
        _, thr_l = self._grid_thresholds(gamma)
        delta = 2.0 * n * (1.0 + self.grid) / self.grid
        # keep grid rows all the way down to the interpolation floor: the
        # default mean-oriented cutoff would blank rows that samples between
        # grid points still need
        vals = sf.noncentral_chi2_logcdf_batch(np.maximum(thr_l, 0.0), 2 * n, delta, rel_cutoff=500.0)
        vals = np.where(thr_l <= 0.0, -np.inf, vals)
        finite = np.isfinite(vals)
        if not np.any(finite):
            return np.full(self.a.shape, -np.inf)
        top = float(np.max(vals[finite]))
        floor = top - 500.0
        out = np.interp(self._log_a, self._log_grid, np.maximum(vals, floor))
        out = np.where(out <= floor + 1e-9, -np.inf, out)
        out[~self._pos] = 0.0 if gamma <= 0.0 else -np.inf
        return out


def _gain_sampler(spec):
    def draw(rng, size):
        h = ch.sample_channel(spec, rng, size)
        return np.sum(np.abs(h) ** 2, axis=(-2, -1))

    return draw


class SimoTwoStep:
    """The two steps of a t = 1 bound at blocklength n.

    A threshold gamma is chosen with an exact-binomial confidence bound on
    P[S_n <= n*gamma] over one gain sample (`threshold`); the tail
    P[L_n >= n*gamma] is then averaged over an independent gain sample
    (`log_tail`). Each of the two steps spends the `delta` its caller
    passes. `plug_in` and `log_mean_tail` give the threshold and the tail
    without a confidence step, for the opposite end of a bound's `ci`. side
    is 'at_least' for a threshold whose selection tail must reach its budget
    (the converse) and 'below' for one whose tail must stay under it (the
    achievability bound).
    """

    def __init__(self, spec, n, cfg, stream_offset=0):
        if spec.t != 1:
            raise DomainError("single-transmit-antenna bound requires t = 1")
        rho = spec.snr
        g_sel = mc.sample_values(_gain_sampler(spec), cfg, stream_offset + _SEL_STREAM)
        self.sel = SimoTailTable(n, rho * g_sel)
        g_eval = mc.sample_values(_gain_sampler(spec), cfg, stream_offset + _EVAL_STREAM)
        self.eval = SimoTailTable(n, rho * g_eval)
        hi = float(np.max(np.log1p(rho * g_sel))) + 1.0
        self.bracket = (-hi - 10.0, hi)
        self._sums = {}

    def _sum(self, gamma):
        """`sum_q_s` of the selection table, cached: the searches for every
        budget, and the plug-in search, share points."""
        if gamma not in self._sums:
            self._sums[gamma] = self.sel.sum_q_s(gamma)
        return self._sums[gamma]

    def threshold(self, budget, side, delta):
        """The gamma whose level-delta confidence bound on P[S_n <= n*gamma] meets `budget` on `side`."""
        bound = mc.cp_lower if side == "at_least" else mc.cp_upper
        trials = self.sel.a.size
        return mc.root_find_monotone(lambda g: bound(self._sum(g), trials, delta), budget, self.bracket, side)

    def plug_in(self, budget, gamma, side):
        """The gamma where the sample mean of P[S_n <= n*gamma] meets `budget` on `side`.

        The confidence step moves the threshold `gamma` away from this root,
        so `gamma` and the far end of the bracket enclose it; when the mean
        does not cross `budget` in between, the far end is returned.
        """
        lo, hi = self.bracket
        bracket = (lo, gamma) if side == "at_least" else (gamma, hi)
        trials = self.sel.a.size
        return mc.root_find_monotone(lambda g: self._sum(g) / trials, budget, bracket, side)

    def log_tail(self, gamma, side, delta):
        """Log level-delta bound on `side` of the mean of P[L_n >= n*gamma] over the evaluation sample."""
        return mc.log_mean_bound(self.eval.log_q_l(gamma), delta, side)[1]

    def log_mean_tail(self, gamma):
        """Log of the sample mean of P[L_n >= n*gamma] over the evaluation sample."""
        return mc.log_mean(self.eval.log_q_l(gamma))


def converse_simo(spec, n, epsilon, cfg, stream_offset=0):
    """Upper bound on the rate of the best blocklength-n code, t = 1.

    The statistics S, L are those of blocklength n + 1. The threshold gamma
    is the smallest value whose exact-binomial lower confidence bound on
    P[S <= (n+1)*gamma] reaches epsilon (enlarging gamma only weakens the
    bound); the rate uses a lower confidence bound on P[L >= (n+1)*gamma]
    over an independent gain sample. Each step spends half of
    cfg.confidence_delta. Returns (rate, (nominal, rate)), where nominal is
    the plug-in value: the threshold where the sample mean of
    P[S <= (n+1)*gamma] equals epsilon, with the sample mean of the tail.
    """
    if n < 1:
        raise DomainError("requires n >= 1")
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must be in (0, 1)")
    steps = SimoTwoStep(spec, n + 1, cfg, stream_offset)
    half = 0.5 * cfg.confidence_delta
    gamma = steps.threshold(epsilon, "at_least", half)
    rate = float(-steps.log_tail(gamma, "lower", half) / n)
    log_mean = steps.log_mean_tail(steps.plug_in(epsilon, gamma, "at_least"))
    return rate, (float(-log_mean / n), rate)


def iso_gains(spec, cfg, stream_offset=0):
    """The (selection, evaluation) samples of isotropic mode gains of `converse_iso`.

    Each is the effective eigenvalues of cfg.samples channel draws, shape
    (samples, min(t, r)), from its own channel stream of `stream_offset`,
    which no per-n stream shares: two independent samples that serve every
    n of a grid (docs/DECISIONS.md, section 9).
    """
    return tuple(
        og.gain_sample(spec, ch.Isotropic(), cfg, stream_offset + og.CHANNEL_STREAM + s)
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
    variance (the tilted estimator is unbiased for any theta >= 0).
    """
    theta = np.zeros(np.shape(c))
    for _ in range(_TILT_MAX_STEPS):
        d = 1.0 + 2.0 * theta[..., None] * s
        excess = np.sum(s * (k + delta / d) / d, axis=-1) - c
        slope = -2.0 * np.sum(s * s * (k + 2.0 * delta / d) / (d * d), axis=-1)
        rising = active & (excess > 0.0)
        step = np.where(rising, excess / np.where(rising, -slope, 1.0), 0.0)
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


def converse_iso(spec, n, epsilon, cfg, stream_offset=0, gains=None):
    """Upper bound on the rate of isotropic codebooks at blocklength n, as
    (rate, (nominal, rate)) with nominal the log-mean estimate at the same
    threshold. The order-statistic threshold and the log-mean bound each
    spend half of cfg.confidence_delta. `gains` are the channel's
    `iso_gains`, shared by a blocklength grid; when None they are drawn
    from the channel streams of `stream_offset`."""
    if not (0.0 < epsilon < 1.0):
        raise DomainError("epsilon must be in (0, 1)")
    if n < 1:
        raise DomainError("requires n >= 1")
    sel, ev = iso_gains(spec, cfg, stream_offset) if gains is None else gains
    values = np.sort(mc.sample_values(iso_statistic_sampler(spec, n), cfg, stream_offset + _SEL_STREAM, sel))
    half = 0.5 * cfg.confidence_delta
    k = mc.quantile_order_indices(cfg.samples, epsilon, "upper", half)
    gamma = float(values[k - 1])
    log_q = mc.sample_values(_iso_log_tail_sampler(spec, n, gamma), cfg, stream_offset + _EVAL_STREAM, ev)
    log_mean, log_lo = mc.log_mean_bound(log_q, half, "lower")
    rate = float(-log_lo / n)
    return rate, (float(-log_mean / n), rate)
