"""Deterministic, parallelizable Monte Carlo engine.

Work is split into chunks of `CHUNK` draws; chunk i always draws from the
counter-based substream (seed, stream_offset + i), so results are
bit-identical for any worker-thread count. Reductions are order-independent
(results are stored by chunk index before combining).

`sample_values` is the one entry point that draws; each estimator applies
its own statistic to the flat sample. The confidence tools are exact
Clopper-Pearson ends for a count of hits (`cp_lower`, `cp_upper`), the
order-statistic index whose value has the requested one-sided coverage
(`quantile_order_indices`), and a conservative lower bound on a log-domain
mean (`log_mean_bound`). Each calls `scipy.special` directly: the Clopper-Pearson
ends are inverse regularized incomplete beta functions, the binomial tails
of the order-statistic search are incomplete beta functions, and the normal
quantile is `ndtri` (docs/DECISIONS.md, section 5).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import ConfigurationError, ConvergenceError, DomainError

__all__ = [
    "MCConfig",
    "rng",
    "substream_index",
    "worker_count",
    "sample_values",
    "quantile_order_indices",
    "root_find_monotone",
    "cp_lower",
    "cp_upper",
    "log_mean_bound",
]


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters.

    confidence_delta is the per-estimate error budget: every interval or
    one-sided bound produced under this config holds with probability at
    least 1 - confidence_delta.
    """

    seed: int
    samples: int = 100_000
    confidence_delta: float = 0.01

    def __post_init__(self):
        if self.samples < 100:
            raise ConfigurationError("samples must be >= 100")
        if not (0.0 < self.confidence_delta <= 0.05):
            raise ConfigurationError("confidence_delta must be in (0, 0.05]")


def rng(seed, stream_index):
    """Counter-based substream generator: its draws depend only on (seed, stream_index)."""
    key = np.array([int(seed) % 2**64, int(stream_index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substream_index(*indices):
    """Mix a tuple of small nonnegative indices into one 64-bit stream index."""
    h = 0
    for i in indices:
        h = (h * 0x100000001B3 + int(i) + 1) & 0xFFFFFFFFFFFFFFFF
    return h


def worker_count():
    """Worker threads: FBL_THREADS (a positive integer) if set, else the CPU count."""
    env = os.environ.get("FBL_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ConfigurationError(f"FBL_THREADS must be a positive integer, got {env!r}")
        return threads
    return os.cpu_count() or 1


def cp_lower(successes, trials, delta):
    """Exact one-sided lower confidence bound on a binomial proportion.

    Where Boost cannot invert the beta law it returns NaN (a few successes
    and delta below about 1e-150), and the bound falls back to 0, which
    always holds.
    """
    if successes <= 0:
        return 0.0
    lo = float(sp.betaincinv(successes, trials - successes + 1, delta))
    return 0.0 if math.isnan(lo) else lo


def cp_upper(successes, trials, delta):
    """Exact one-sided upper confidence bound on a binomial proportion; 1,
    which always holds, where Boost cannot invert the beta law."""
    if successes >= trials:
        return 1.0
    hi = float(sp.betainccinv(successes + 1, trials - successes, delta))
    return 1.0 if math.isnan(hi) else hi


# draws per chunk of `sample_values`: the seed, the sample count and the
# stream offset then fix every draw
CHUNK = 4096


def sample_values(value_sampler, cfg, stream_offset=0, given=None):
    """Draw cfg.samples values deterministically; returns one flat array.

    value_sampler(rng, size) must return `size` values (or rows) computed
    from the rng alone. With `given`, an array of cfg.samples rows drawn
    under the same cfg (a `sample_values` result), chunk i calls
    value_sampler(rng, size, rows) with rows the chunk's own rows of
    `given`: one sample, such as the channel draws of a blocklength grid,
    can then condition the draws of many calls. Chunks of `CHUNK` draws
    run on the worker pool and are concatenated in chunk-index order.
    """
    full = (cfg.samples - 1) // CHUNK  # chunks before the last
    sizes = [CHUNK] * full + [cfg.samples - CHUNK * full]
    results = [None] * len(sizes)
    extra = [()] * len(sizes)
    if given is not None:
        if len(given) != cfg.samples:
            raise DomainError(f"given holds {len(given)} rows for {cfg.samples} samples")
        extra = [(rows,) for rows in np.split(given, np.cumsum(sizes)[:-1])]

    def work(i):
        results[i] = np.asarray(value_sampler(rng(cfg.seed, stream_offset + i), sizes[i], *extra[i]))

    threads = worker_count()
    if threads == 1 or len(sizes) == 1:
        for i in range(len(sizes)):
            work(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(sizes))))
    return np.concatenate(results)


def quantile_order_indices(n, target_prob, direction, delta):
    """1-based order-statistic index k for a conservative empirical quantile.

    direction='upper': smallest k with P[Binomial(n, target) >= k] <= delta,
    so P[X <= x_(k)] >= target holds with confidence 1 - delta.
    direction='lower': largest k with P[Binomial(n, target) <= k-1] <= delta,
    so P[X <= x_(k)] <= target holds with confidence 1 - delta.
    """
    if direction not in ("upper", "lower"):
        raise DomainError("direction must be 'upper' or 'lower'")
    upper = direction == "upper"

    def meets(k):
        # P[Binomial(n, p) >= k] = I_p(k, n - k + 1), and P[... <= k-1] is its complement
        tail = (sp.betainc if upper else sp.betaincc)(k, n - k + 1, target_prob)
        return tail <= delta

    # bisect between an index that meets the inequality and one that does not;
    # bad starts just outside [1, n], where the tail is 1 > delta
    good, bad = (n, 0) if upper else (1, n + 1)
    if not meets(good):
        raise ConfigurationError("too few samples for the requested quantile confidence")
    while abs(good - bad) > 1:
        mid = (good + bad) // 2
        if meets(mid):
            good = mid
        else:
            bad = mid
    return good


# steps the root search may take beyond bisection's count on the same bracket
_SLACK_STEPS = 3


def _log_value(v):
    return math.log(max(v, 1e-300))


def _interpolate(lo, v_lo, hi, v_hi, dropped):
    """Root of the inverse quadratic through the bracket ends and `dropped`
    when it lies inside the bracket, else of the secant through the ends."""
    if dropped is not None and dropped[1] not in (v_lo, v_hi):
        c, v_c = dropped
        x = (
            lo * v_hi * v_c / ((v_lo - v_hi) * (v_lo - v_c))
            + hi * v_lo * v_c / ((v_hi - v_lo) * (v_hi - v_c))
            + c * v_lo * v_hi / ((v_c - v_lo) * (v_c - v_hi))
        )
        if lo < x < hi:
            return x
    return (lo * v_hi - hi * v_lo) / (v_hi - v_lo)


def root_find_monotone(f, target, bracket, side, max_iter=80):
    """Safeguarded bracketing search for where a nondecreasing `f` crosses `target`.

    side='at_least' returns the smallest x in the bracket with f(x) >= target,
    side='below' the largest x with f(x) <= target, each to within
    1e-12 * max(1, |hi|). Every step keeps a bracket [lo, hi] whose ends lie
    on either side of the crossing, so the returned end always satisfies its
    inequality, and on a step function it lies on the requested side of the
    jump.

    A step interpolates log f, since the callers' f are probabilities that
    span many orders of magnitude: inverse quadratic through the two ends and
    the end dropped last, else the secant. As in ITP (Oliveira and Takahashi,
    ACM TOMS 2020) the point is moved toward the midpoint by
    max(0.2 w^2 / w0, tol / 2), w the bracket width and w0 its first width,
    so that it lands past the crossing and both ends close in; and it is
    projected into a window about the midpoint that shrinks like bisection,
    which bounds the count at `_SLACK_STEPS` steps more than bisection's. As
    in Brent's method, a step that did not halve the bracket is followed by a
    bisection. On the Fig. 2 selection functions this takes 10-23 steps
    where bisection takes 44 (docs/DECISIONS.md, section 5). Raises
    DomainError when no point of the bracket satisfies the inequality, and
    ConvergenceError when `max_iter` steps do not reach the tolerance.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if side not in ("below", "at_least"):
        raise DomainError("side must be 'below' or 'at_least'")
    at_least = side == "at_least"
    f_lo, f_hi = f(lo), f(hi)
    if at_least and f_hi < target:
        raise DomainError("target not bracketed from above")
    if not at_least and f_lo > target:
        raise DomainError("target not bracketed from below")
    if at_least and f_lo >= target:
        return lo
    if not at_least and f_hi <= target:
        return hi
    log_target = _log_value(target)
    v_lo, v_hi = _log_value(f_lo) - log_target, _log_value(f_hi) - log_target
    width0 = hi - lo
    # half the smallest tolerance the stopping rule can apply in the bracket
    eps = 0.5e-12 * (1.0 if lo <= 0.0 <= hi else max(1.0, min(abs(lo), abs(hi))))
    n_max = max(math.ceil(math.log2(width0 / (2.0 * eps))), 0) + _SLACK_STEPS
    dropped = None  # (x, log-domain value) of the end the last step replaced
    last_width = 2.0 * width0
    for j in range(max_iter):
        width = hi - lo
        tol = 1e-12 * max(1.0, abs(hi))
        if width <= tol:
            return hi if at_least else lo
        mid = 0.5 * (lo + hi)
        x = mid
        if width <= 0.5 * last_width and v_hi > v_lo:
            x_f = _interpolate(lo, v_lo, hi, v_hi, dropped)
            push = max(0.2 * width * width / width0, 0.5 * tol)
            if push < abs(mid - x_f):
                x = x_f + math.copysign(push, mid - x_f)
        radius = max(math.ldexp(eps, n_max - j) - 0.5 * width, 0.0)
        x = min(max(x, mid - radius), mid + radius)
        last_width = width
        fx = f(x)
        v = _log_value(fx) - log_target
        if fx > target or (at_least and fx == target):
            dropped = (hi, v_hi)
            hi, v_hi = x, v
        else:
            dropped = (lo, v_lo)
            lo, v_lo = x, v
    if hi - lo <= 1e-12 * max(1.0, abs(hi)):
        return hi if at_least else lo
    raise ConvergenceError(f"root search did not reach its tolerance in {max_iter} steps")


# batches of the batch-means standard error in `log_mean_bound`
_LOG_MEAN_BATCHES = 64


def log_mean_bound(log_values, delta):
    """Conservative lower bound on the log of the mean of positive values
    given in log domain.

    Returns (log_mean, log_lower): the log of the sample mean, and a lower
    confidence bound on the log of the true mean. Used where the mean spans
    hundreds of orders of magnitude and an exact binomial envelope is
    unavailable. The bound is the larger of a batch-means normal bound and a
    distribution-free Markov bound (a nonnegative unbiased estimate exceeds
    its mean by 1/d with probability at most d), so it stays finite even when
    a few samples carry most of the mass. Each is taken at level delta / 2,
    and the larger holds when both do, so the bound holds with probability
    at least 1 - delta (union bound).
    """
    log_values = np.asarray(log_values, dtype=float)
    n = log_values.size
    shift = float(np.max(log_values))
    if not np.isfinite(shift):
        return -np.inf, -np.inf
    w = np.exp(log_values - shift)
    mean = float(np.mean(w))
    b = min(_LOG_MEAN_BATCHES, n)
    batch = np.array_split(w, b)
    bm = np.array([np.mean(x) for x in batch])
    se = float(np.std(bm, ddof=1) / math.sqrt(b)) if b > 1 else 0.0
    z = float(-sp.ndtri(0.5 * delta))
    lo = max(mean - z * se, 0.5 * delta * mean)
    return shift + math.log(mean), shift + math.log(lo)
