"""Normal approximations and the AWGN reference curve."""

from __future__ import annotations

import math

import numpy as np

from . import mc
from . import specfun as sf
from .errors import DomainError
from .outage import capacity_dispersion, mode_gains

__all__ = ["NormalApprox", "awgn_reference_rate"]


class NormalApprox:
    """Outage-averaged normal approximation over a fixed channel sample set.

    With C(h), V(h) the capacity and dispersion of channel realization h, the
    rate at blocklength n and error probability epsilon is

        R(n, eps) = R0 + ln(n) / (2n),  where  E_h[Q((C(h) - R0) / sqrt(V(h)/n))] = eps,

    the expectation being the sample mean. Given h the channel is AWGN, so
    the third-order term is the one of the nonfading reference: for a
    deterministic channel R equals `awgn_reference_rate`.

    The same sample set (common random numbers) serves every blocklength in
    a sweep, which keeps curves smooth and monotone in n.
    """

    def __init__(self, spec, cov, cfg, stream_offset=0):
        def cv_sampler(rng, size):
            return np.stack(capacity_dispersion(mode_gains(spec, cov, rng, size)), axis=-1)

        pairs = mc.sample_values(cv_sampler, cfg, stream_offset).reshape(-1, 2)
        self.c = pairs[:, 0]
        self.v = pairs[:, 1]

    def outage_cdf(self, rate, n):
        """Average of the per-realization normal error estimate at `rate`."""
        sigma = np.sqrt(self.v / n)
        positive = sigma > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(positive, (self.c - rate) / np.where(positive, sigma, 1.0), 0.0)
        terms = np.where(
            positive,
            sf.gaussian_q(z),
            np.where(self.c < rate, 1.0, np.where(self.c == rate, 0.5, 0.0)),
        )
        return float(np.mean(terms))

    def rate(self, n, epsilon):
        """R0 + ln(n)/(2n), with R0 the rate whose average normal error is epsilon."""
        if n < 1:
            raise DomainError("requires n >= 1")
        if not (0.0 < epsilon < 1.0):
            raise DomainError("epsilon must be in (0, 1)")
        # every term is below Q(Q^-1(eps) + 1) < eps at the low end and above
        # 1 - Q(10) at the high end; small n can put the root below zero rate
        sigma = math.sqrt(max(np.max(self.v), 1e-12) / n)
        lo = float(np.min(self.c)) - max(10.0, sf.gaussian_q_inv(epsilon) + 1.0) * sigma
        hi = float(np.max(self.c)) + 10.0 * sigma
        r0 = mc.root_find_monotone(lambda r: self.outage_cdf(r, n), epsilon, (lo, hi), "at_least")
        return r0 + math.log(n) / (2.0 * n)


def awgn_reference_rate(rho, n, epsilon):
    """Normal-approximation reference for the nonfading channel, in nats."""
    if rho <= 0 or n < 1:
        raise DomainError("requires rho > 0 and n >= 1")
    v = rho * (rho + 2.0) / (1.0 + rho) ** 2
    return math.log1p(rho) - math.sqrt(v / n) * sf.gaussian_q_inv(epsilon) + math.log(n) / (2.0 * n)
