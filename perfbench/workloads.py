"""The benchmark's workloads: the `fbl` CLI calls each one makes, built from a seed.

A workload is a list of argv lists for `fbl.cli.main` plus the `FBL_THREADS`
value it runs under. One round runs every call once; the timed loop repeats
rounds. The benchmark seed drives a `random.Random`, so the same seed gives
the same calls; the program only ever sees the generated arguments.

This module imports nothing from `fbl`, numpy or scipy, so building the
requests costs no more than the program's own set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The Fig. 2 channel: 1 x 2 Rician, K = 20 dB, SNR -1.55 dB, epsilon = 1e-3.
FIG2_CHANNEL = dict(t=1, r=2, snr_db=-1.55, k_db=20.0)
FIG2_ARGS = ["--r", "2", "--snr-db", "-1.55", "--fading", "rician", "--k-db", "20"]
EPSILON = 1e-3

# Blocklength of the fig2-simo rounds. It lies past the point (n ~ 300-450)
# where the best Fig. 2 achievability bound reaches 0.9 C_eps.
FIG2_N = 500
# The QR decoding-statistic sampler costs O(samples * n); the tail-table
# bounds cost little per sample, so they run at the CLI default.
FIG2_ACH_SIMO_SAMPLES = 40_000
SAMPLES = 100_000
FIG3_GRID = "100,200,500"

# outage-mt: many cheap draws on the Fig. 2 channel, fewer on the MIMO
# channels, whose draws cost one eigendecomposition each
SIMO_DRAWS = 1_000_000
MIMO_DRAWS = 500_000


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    calls: tuple[tuple[str, ...], ...]
    program_seed: int


def _program_seed(rng):
    return rng.randrange(1, 2**31)


def fig2_simo(seed):
    """The Fig. 2 bounds at one blocklength, one CLI call per bound."""
    rng = random.Random(f"fig2-simo:{seed}")
    s = _program_seed(rng)
    common = (*FIG2_ARGS, "--cov", "waterfill", "--n", str(FIG2_N), "--seed", str(s), "--samples")
    calls = [("bound", "ach-simo", *common, str(FIG2_ACH_SIMO_SAMPLES))]
    calls += [("bound", b, *common, str(SAMPLES)) for b in ("ach-csir-kb", "conv-simo")]
    calls += [("approx", b, *common, str(SAMPLES)) for b in ("normal", "awgn")]
    return Workload("fig2-simo", 1, tuple(calls), s)


def fig3_mimo(seed):
    rng = random.Random(f"fig3-mimo:{seed}")
    s = _program_seed(rng)
    call = ("figure", "fig3", "--seed", str(s), "--samples", str(SAMPLES), "--n-grid", FIG3_GRID)
    return Workload("fig3-mimo", 1, (call,), s)


def outage_mt(seed):
    """Outage probability and epsilon-capacity over four channels, two threads."""
    rng = random.Random(f"outage-mt:{seed}")
    s = _program_seed(rng)
    fig2 = (*FIG2_ARGS, "--cov", "waterfill", "--seed", str(s), "--samples", str(SIMO_DRAWS))
    mimo = ("--seed", str(s), "--samples", str(MIMO_DRAWS))
    # three rates around the Fig. 2 outage capacity (1.0 bit at epsilon = 1e-3)
    rates = sorted(round(rng.uniform(0.9, 1.1), 4) for _ in range(3))
    calls = [("outage", *fig2, "--rate-bits", str(rate)) for rate in rates]
    calls.append(("eps-capacity", *fig2))
    calls.append(("eps-capacity", "--t", "2", "--r", "3", "--snr-db", "2.12", *mimo))
    calls += [("eps-capacity", "--t", "4", "--r", "4", "--snr-db", "0", "--cov", cov, *mimo) for cov in ("iso", "waterfill")]
    return Workload("outage-mt", 2, tuple(calls), s)


WORKLOADS = {"fig2-simo": fig2_simo, "fig3-mimo": fig3_mimo, "outage-mt": outage_mt}


def build(name, seed):
    return WORKLOADS[name](seed)
