"""Normal approximations and the AWGN reference curve."""

from __future__ import annotations

import math

import numpy as np

from . import channel as ch
from . import converse as cv
from . import mc
from . import specfun as sf
from .errors import DomainError
from .outage import capacity_dispersion, mode_gains

__all__ = ["NormalApprox", "awgn_reference_rate"]


class NormalApprox:
    """Outage-averaged normal approximation.

    With C(h), V(h) the capacity and dispersion of channel realization h, the
    rate at blocklength n and error probability epsilon is

        R(n, eps) = R0 + ln(n) / (2n),  where  E_h[Q((C(h) - R0) / sqrt(V(h)/n))] = eps.

    Given h the channel is AWGN, so the third-order term is the one of the
    nonfading reference: for a deterministic channel R equals
    `awgn_reference_rate`.

    The expectation is a weighted sum over nodes (C, V) (`nodes`). At t = 1,
    C and V are functions of the gain rho |h|^2, and the nodes are the
    gain-law cells of `converse.gain_cells` at epsilon, with trapezoid
    weights: nothing is drawn, so cfg and stream_offset go unused
    (docs/DECISIONS.md, section 2). At t >= 2 the nodes are one channel
    sample and the expectation is their mean; the same sample (common random
    numbers) serves every blocklength, which keeps curves smooth and
    monotone in n.
    """

    def __init__(self, spec, cov, cfg, stream_offset=0):
        self.spec = spec
        self._cells = {}
        self.sample = None
        if spec.t == 1:
            if not isinstance(cov, (ch.WaterFill, ch.Isotropic)):
                raise DomainError(f"unknown covariance policy: {cov!r}")
            return

        def cv_sampler(rng, size):
            return np.stack(capacity_dispersion(mode_gains(spec, cov, rng, size)), axis=-1)

        pairs = mc.sample_values(cv_sampler, cfg, stream_offset).reshape(-1, 2)
        self.sample = (pairs[:, 0], pairs[:, 1], None)

    def nodes(self, epsilon):
        """(c, v, weights) of the average at target epsilon; weights None is the sample mean.

        At t = 1 one gain serves both covariance policies, and the weights
        are the trapezoid rule with the exact cell probabilities, the mass
        outside the grid counted at its end nodes.
        """
        if self.sample is not None:
            return self.sample
        if epsilon not in self._cells:
            table = cv.SimoTailTable
            gains, prob, (below, above), _ = cv.gain_cells(self.spec, epsilon, table.GRID, table.TAIL_NATS)
            weights = np.append(below, 0.5 * prob) + np.append(0.5 * prob, above)
            self._cells[epsilon] = (*capacity_dispersion(gains[:, None]), weights)
        return self._cells[epsilon]

    def outage_cdf(self, rate, n, epsilon):
        """Average of the per-node normal error estimate at `rate`, on the nodes for epsilon."""
        c, v, weights = self.nodes(epsilon)
        sigma = np.sqrt(v / n)
        positive = sigma > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(positive, (c - rate) / np.where(positive, sigma, 1.0), 0.0)
        terms = np.where(
            positive,
            sf.gaussian_q(z),
            np.where(c < rate, 1.0, np.where(c == rate, 0.5, 0.0)),
        )
        return float(np.mean(terms)) if weights is None else float(weights @ terms)

    def rate(self, n, epsilon):
        """R0 + ln(n)/(2n), with R0 the rate whose average normal error is epsilon."""
        if n < 1:
            raise DomainError("requires n >= 1")
        if not (0.0 < epsilon < 1.0):
            raise DomainError("epsilon must be in (0, 1)")
        c, v, _ = self.nodes(epsilon)
        # every term is below Q(Q^-1(eps) + 1) < eps at the low end and above
        # 1 - Q(10) at the high end; small n can put the root below zero rate
        sigma = math.sqrt(max(np.max(v), 1e-12) / n)
        lo = float(np.min(c)) - max(10.0, sf.gaussian_q_inv(epsilon) + 1.0) * sigma
        hi = float(np.max(c)) + 10.0 * sigma
        r0 = mc.root_find_monotone(lambda r: self.outage_cdf(r, n, epsilon), epsilon, (lo, hi), "at_least")
        return r0 + math.log(n) / (2.0 * n)


def awgn_reference_rate(rho, n, epsilon):
    """Normal-approximation reference for the nonfading channel, in nats."""
    if rho <= 0 or n < 1:
        raise DomainError("requires rho > 0 and n >= 1")
    v = rho * (rho + 2.0) / (1.0 + rho) ** 2
    return math.log1p(rho) - math.sqrt(v / n) * sf.gaussian_q_inv(epsilon) + math.log(n) / (2.0 * n)
