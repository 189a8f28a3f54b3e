"""The table of bounds, sweep requests, flat key-value config files, and
figure presets.

Config files are plain text, one `key = value` per line, '#' comments.
SNR and the Rician K-factor are accepted in dB on all external interfaces
and converted to linear scale exactly once, here.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

from . import achievability as ach
from . import approx as ap
from . import channel as ch
from . import converse as cv
from . import outage as og
from .errors import ConfigurationError
from .mc import MCConfig

__all__ = [
    "SweepRequest",
    "Bound",
    "BOUNDS",
    "BOUND_NAMES",
    "parse_n_grid",
    "parse_config_text",
    "KEYS",
    "request_from_mapping",
    "figure_preset",
    "db_to_linear",
]


@dataclass(frozen=True)
class Bound:
    """One entry of BOUNDS.

    evaluate(req, offset) returns one (rate_nats, (ci_lo, ci_hi)) pair per n
    of req.n_grid, where offset(n) is the bound's random-stream offset at
    blocklength n; command is the CLI subcommand that takes the name; side
    is the row's `side` cell ('lower', 'upper', 'estimate' or 'outage');
    t1_only marks the bounds that need a single transmit antenna.
    """

    evaluate: Callable
    command: str
    side: str
    t1_only: bool = False


# The evaluators look each bound function up in its module at call time, so
# a wrapper installed on the module attribute (a tracer) sees every call.
# The per-n bounds below draw their channel gains once, at offset(0): the
# channel streams depend on the bound alone, so a one-point grid gives that
# n's row of any grid, and the gains are freed when the grid is done.
def _kappa_beta(cov):
    def evaluate(req, offset):
        gains = og.gain_sample(req.spec, cov, req.mc, offset(0))
        return [
            ach.rate_lower_bound(req.spec, n, req.epsilon, req.tau, req.mc, offset(n), gains)
            for n in req.n_grid
        ]

    return evaluate


def _converse_iso(req, offset):
    gains = cv.iso_gains(req.spec, req.mc, offset(0))
    return [cv.converse_iso(req.spec, n, req.epsilon, req.mc, offset(n), gains) for n in req.n_grid]


def _csir_kappa_beta(req, offset):
    return [ach.csir_kappa_beta_simo(req.spec, n, req.epsilon, req.tau) for n in req.n_grid]


def _converse_simo(req, offset):
    return [cv.converse_simo(req.spec, n, req.epsilon) for n in req.n_grid]


def _estimate(rate):
    return rate, (rate, rate)


def _normal(req, offset):
    # one set of nodes serves the whole grid: at t = 1 the gain-law cells,
    # which draw nothing, and at t >= 2 one channel sample
    approx = ap.NormalApprox(req.spec, req.cov, req.epsilon, req.mc, stream_offset=offset(0))
    return [_estimate(approx.rate(n)) for n in req.n_grid]


def _awgn(req, offset):
    return [_estimate(ap.awgn_reference_rate(req.spec.snr, n, req.epsilon)) for n in req.n_grid]


# outage and eps-capacity do not depend on n: each draws once, on the stream
# of the grid's first n, and its pair is repeated over the grid
def _outage(req, offset):
    _, ci = og.outage_probability(req.spec, req.cov, req.rate_nats, req.mc, stream_offset=offset(req.n_grid[0]))
    return [(req.rate_nats, ci)] * len(req.n_grid)


def _eps_capacity(req, offset):
    value, (lo, hi) = og.epsilon_capacity(req.spec, req.cov, req.epsilon, req.mc, stream_offset=offset(req.n_grid[0]))
    if hi - lo < 1e-9 * max(1.0, abs(value)):
        print("warning: capacity quantile is epsilon-independent (degenerate fading?)", file=sys.stderr)
    return [(value, (lo, hi))] * len(req.n_grid)


# Every bound name. The position of a name fixes its stream offset, so new
# names go at the end.
BOUNDS = {
    "ach-csit": Bound(_kappa_beta(ch.WaterFill()), "bound", "lower"),
    "ach-nocsi": Bound(_kappa_beta(ch.Isotropic()), "bound", "lower"),
    # the t = 1 case of ach-csit, under its own stream offset
    "ach-simo": Bound(_kappa_beta(ch.WaterFill()), "bound", "lower", t1_only=True),
    "ach-csir-kb": Bound(_csir_kappa_beta, "bound", "lower", t1_only=True),
    "conv-simo": Bound(_converse_simo, "bound", "upper", t1_only=True),
    "conv-iso": Bound(_converse_iso, "bound", "upper"),
    "normal": Bound(_normal, "approx", "estimate"),
    "awgn": Bound(_awgn, "approx", "estimate"),
    "outage": Bound(_outage, "outage", "outage"),
    "eps-capacity": Bound(_eps_capacity, "eps-capacity", "estimate"),
}

BOUND_NAMES = list(BOUNDS)


def db_to_linear(x_db):
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SweepRequest:
    """A checked sweep: every field is validated at construction."""

    spec: ch.ChannelSpec
    cov: object
    epsilon: float
    n_grid: tuple[int, ...]
    bounds: tuple[str, ...]
    mc: MCConfig
    tau: float | None = None  # None = default grid search
    rate_nats: float | None = None  # only for the 'outage' bound
    output: str | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigurationError("epsilon must be in (0, 1)")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigurationError("n_grid must be strictly increasing")
        if not self.n_grid or self.n_grid[0] < 1:
            raise ConfigurationError("blocklengths must be positive integers")
        for b in self.bounds:
            if b not in BOUNDS:
                raise ConfigurationError(f"unknown bound: {b}")
            if BOUNDS[b].t1_only and self.spec.t != 1:
                raise ConfigurationError(f"bound {b} requires a single transmit antenna")
        if "outage" in self.bounds and self.rate_nats is None:
            raise ConfigurationError("the outage bound needs a rate (rate_bits)")
        if self.output is not None and os.path.isdir(self.output):
            raise ConfigurationError(f"output path is a directory: {self.output}")


def parse_n_grid(text):
    """Grid spec: 'a:b:step' (arithmetic, inclusive), 'geom:a:b:points',
    or a comma list (a single integer is a list of one)."""
    text = text.strip()
    try:
        if text.startswith("geom:"):
            _, a, b, k = text.split(":")
            a, b, k = int(a), int(b), int(k)
            if a < 1 or b < a or k < 2:
                raise ValueError
            grid = sorted({int(round(a * (b / a) ** (i / (k - 1)))) for i in range(k)})
            return tuple(grid)
        if ":" in text:
            a, b, step = (int(x) for x in text.split(":"))
            if step < 1 or b < a:
                raise ValueError
            return tuple(range(a, b + 1, step))
        return tuple(sorted({int(x) for x in text.split(",")}))
    except ValueError as exc:
        raise ConfigurationError(f"bad n_grid spec: {text!r}") from exc


def _needs(kv, key, kind):
    if kv.get(key) is None:
        raise ConfigurationError(f"{kind} fading needs {key}")
    return float(kv[key])


# the accepted values of `fading.kind`, each with the model its fading.*
# keys build
FADINGS = {
    "rayleigh": lambda kv: ch.Rayleigh(),
    "rician": lambda kv: ch.Rician(k_factor=db_to_linear(_needs(kv, "fading.k_db", "rician"))),
    "nakagami": lambda kv: ch.Nakagami(m_shape=_needs(kv, "fading.m_shape", "nakagami")),
}

# the accepted values of `cov`
COVARIANCES = {"iso": ch.Isotropic, "waterfill": ch.WaterFill}


def _lookup(table, what, name):
    """table[name], or a ConfigurationError naming the unknown `what`."""
    if name not in table:
        raise ConfigurationError(f"unknown {what}: {name}")
    return table[name]


def parse_config_text(text):
    """The key-value mapping of a flat config text."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        kv[key] = value
    return kv


_MC_KEYS = {"samples": int, "confidence_delta": float}

# every key a config mapping may hold
KEYS = (
    "antennas", "snr_db", "fading.kind", "fading.k_db", "fading.m_shape", "cov", "epsilon", "tau",
    "rate_bits", "n_grid", "bounds", "seed", *_MC_KEYS, "output",
)


def request_from_mapping(kv):
    """The checked SweepRequest of a config mapping; keys left out take their
    defaults, and a key outside KEYS is an error."""
    unknown = [key for key in kv if key not in KEYS]
    if unknown:
        raise ConfigurationError(f"unknown config key: {', '.join(unknown)}")
    try:
        antennas = kv.get("antennas", "1x1").lower()
        t_str, r_str = antennas.split("x")
        spec = ch.ChannelSpec(
            t=int(t_str),
            r=int(r_str),
            snr=db_to_linear(float(kv["snr_db"])),
            fading=_lookup(FADINGS, "fading kind", (kv.get("fading.kind") or "rayleigh").lower())(kv),
        )
    except (KeyError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"bad channel configuration: {exc}") from exc
    try:
        tau_raw = kv.get("tau", "grid")
        tau = None if tau_raw in ("grid", "", None) else float(tau_raw)
        rate_nats = float(kv["rate_bits"]) * math.log(2.0) if "rate_bits" in kv else None
        epsilon = float(kv.get("epsilon", "1e-3"))
        seed = int(kv.get("seed", "1"))
        # MCConfig holds the defaults of the keys left out
        mc_kw = {key: conv(kv[key]) for key, conv in _MC_KEYS.items() if key in kv}
    except ValueError as exc:
        raise ConfigurationError(f"bad number in configuration: {exc}") from exc
    return SweepRequest(
        spec=spec,
        cov=_lookup(COVARIANCES, "covariance policy", (kv.get("cov") or "iso").lower())(),
        epsilon=epsilon,
        n_grid=parse_n_grid(kv.get("n_grid", "100")),
        bounds=tuple(b.strip() for b in kv.get("bounds", "").split(",") if b.strip()),
        mc=MCConfig(seed=seed, **mc_kw),
        tau=tau,
        rate_nats=rate_nats,
        output=kv.get("output"),
    )


_FIG_GRID = "geom:10:1000:12"

# each preset is the config mapping `request_from_mapping` reads, less the
# grid and the seed
PRESETS = {
    "fig2": {
        "antennas": "1x2", "snr_db": "-1.55", "fading.kind": "rician", "fading.k_db": "20",
        "epsilon": "1e-3", "cov": "waterfill", "bounds": "ach-simo,ach-csir-kb,conv-simo,normal,awgn",
    },
    "fig3": {
        "antennas": "2x3", "snr_db": "2.12", "fading.kind": "rayleigh",
        "epsilon": "1e-3", "cov": "iso", "bounds": "ach-nocsi,conv-iso,normal",
    },
    "fig5": {
        "antennas": "1x2", "snr_db": "2.74", "fading.kind": "rayleigh",
        "epsilon": "0.1", "cov": "waterfill", "bounds": "ach-simo,conv-simo,normal",
    },
}


def figure_preset(name):
    """The config mapping, grid included, that reproduces one of the published bound figures."""
    return {**_lookup(PRESETS, "figure preset", name), "n_grid": _FIG_GRID}
