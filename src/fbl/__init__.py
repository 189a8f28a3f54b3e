"""Finite-blocklength bounds for quasi-static MIMO fading channels.

Modules:
    specfun        batched noncentral chi-square tails and their sampler
    mc             deterministic, parallelizable Monte Carlo engine
    channel        fading models, channel sampling, effective eigenvalues
    outage         water-filling, outage probability, epsilon-capacity
    achievability  kappa-beta lower bounds on the maximal coding rate
    converse       meta-converse upper bounds
    approx         normal approximations and the AWGN reference curve
    config         the table of bounds, sweep requests, config files, figure presets
    cli            `fbl` command-line front end
    errors         the exceptions behind the CLI's exit codes
"""

__version__ = "0.1.0"
