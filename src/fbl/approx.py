"""Normal approximations and the AWGN reference curve."""

from __future__ import annotations

import math

import numpy as np

from . import channel as ch
from . import converse as cv
from . import mc
from . import specfun as sf
from .errors import DomainError
from .outage import capacity_dispersion, gain_sample

__all__ = ["NormalApprox", "awgn_reference_rate"]


class NormalApprox:
    """Outage-averaged normal approximation at error probability epsilon.

    With C(h), V(h) the capacity and dispersion of channel realization h, the
    rate at blocklength n and error probability epsilon is

        R(n, eps) = R0 + ln(n) / (2n),  where  E_h[Q((C(h) - R0) / sqrt(V(h)/n))] = eps.

    Given h the channel is AWGN, so the third-order term is the one of the
    nonfading reference: for a deterministic channel R equals
    `awgn_reference_rate`.

    The expectation is a weighted sum over nodes (C, V), built once for
    every blocklength. At t = 1, C and V are functions of the gain
    rho |h|^2, and the nodes are the gain-law cells of `converse.gain_cells`
    at epsilon, with the trapezoid rule on the exact cell probabilities and
    the mass outside the grid counted at its end nodes: nothing is drawn,
    so cfg and key go unused (docs/DECISIONS.md, section 2). At t >= 2 the
    nodes are one channel sample (`outage.gain_sample` on the stream key
    `key`) and the expectation is their mean (weights None); the same
    sample (common random numbers) serves every blocklength, which keeps
    curves smooth and monotone in n.
    """

    def __init__(self, spec, cov, epsilon, cfg, key=()):
        if not (0.0 < epsilon < 1.0):
            raise DomainError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        if spec.t == 1:
            # one gain serves both covariance policies
            if not isinstance(cov, (ch.WaterFill, ch.Isotropic)):
                raise DomainError(f"unknown covariance policy: {cov!r}")
            table = cv.SimoTailTable
            gains, prob, (below, above), _ = cv.gain_cells(spec, epsilon, table.GRID, table.TAIL_NATS)
            self.weights = np.append(below, 0.5 * prob) + np.append(0.5 * prob, above)
            self.c, self.v = capacity_dispersion(gains[:, None])
        else:
            self.c, self.v = capacity_dispersion(gain_sample(spec, cov, cfg, key))
            self.weights = None

    def outage_cdf(self, rate, n):
        """Average of the per-node normal error estimate Q((C - rate) / sqrt(V/n)).

        A node with V = 0 (every node at a vanishing SNR) counts Q(-inf) = 1,
        1/2 or Q(inf) = 0 as C is below, at or above the rate.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (self.c - rate) / np.sqrt(self.v / n)
        terms = np.where(np.isnan(z), 0.5, sf.gaussian_q(z))
        return float(np.mean(terms)) if self.weights is None else float(self.weights @ terms)

    def rate(self, n):
        """R0 + ln(n)/(2n), with R0 the rate whose average normal error is epsilon."""
        if n < 1:
            raise DomainError("requires n >= 1")
        # every term is below Q(Q^-1(eps) + 1) < eps at the low end and above
        # 1 - Q(10) at the high end; small n can put the root below zero rate
        sigma = math.sqrt(max(np.max(self.v), 1e-12) / n)
        lo = float(np.min(self.c)) - max(10.0, sf.gaussian_q_inv(self.epsilon) + 1.0) * sigma
        hi = float(np.max(self.c)) + 10.0 * sigma
        r0 = mc.root_find_monotone(lambda r: self.outage_cdf(r, n), self.epsilon, (lo, hi), "at_least")
        return r0 + math.log(n) / (2.0 * n)


def awgn_reference_rate(rho, n, epsilon):
    """Normal-approximation reference for the nonfading channel, in nats."""
    if rho <= 0 or n < 1:
        raise DomainError("requires rho > 0 and n >= 1")
    v = rho * (rho + 2.0) / (1.0 + rho) ** 2
    return math.log1p(rho) - math.sqrt(v / n) * sf.gaussian_q_inv(epsilon) + math.log(n) / (2.0 * n)
