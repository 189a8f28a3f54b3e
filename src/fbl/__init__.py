"""Finite-blocklength bounds for quasi-static MIMO fading channels.

Subpackages:
    specfun        batched noncentral chi-square tails and their sampler
    mc             deterministic, parallelizable Monte Carlo engine
    channel        fading models, channel sampling, effective eigenvalues
    outage         water-filling, outage probability, epsilon-capacity
    achievability  kappa-beta lower bounds on the maximal coding rate
    converse       meta-converse upper bounds
    approx         normal approximations and the AWGN reference curve
    cli            `fbl` command-line front end
"""

__version__ = "0.1.0"
