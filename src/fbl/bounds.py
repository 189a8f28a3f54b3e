"""Shared result type for bound evaluations."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoundPoint:
    """One point on a bound curve.

    rate_nats is the reported (already conservatively adjusted) value;
    ci, when present, is the (low, high) interval in nats between rate_nats
    and the nominal estimate it was adjusted from, so one end is rate_nats.
    side is 'lower' for achievability, 'upper' for converses,
    'estimate' for approximations.

    Two rows read differently. An 'outage' row (side 'outage') carries the
    requested rate as rate_nats and the Clopper-Pearson interval on the
    outage probability, not a rate, as ci. An 'eps-capacity' row (side
    'estimate') carries the empirical epsilon-quantile of the capacity and
    its order-statistic interval in nats, which brackets rate_nats.
    """

    n: int
    epsilon: float
    rate_nats: float
    side: str
    tau: float | None = None
    ci: tuple[float, float] | None = None
