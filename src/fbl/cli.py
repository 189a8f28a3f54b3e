"""`fbl` command-line front end.

Emits CSV with the schema
    bound,n,rate_nats,rate_bits,ci_lo,ci_hi,side,seed,samples
for every command. Rows are deterministic for a fixed seed regardless of the
FBL_THREADS worker count. Exit codes: 0 success, 2 configuration error,
3 numerical/convergence error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import config as cf
from . import mc
from .errors import ConfigurationError, ConvergenceError, DomainError

CSV_HEADER = "bound,n,rate_nats,rate_bits,ci_lo,ci_hi,side,seed,samples"
_LN2 = math.log(2.0)


def _fmt(x):
    return f"{x:.12g}"


def _row(bound, n, rate, ci, cfg):
    cells = [
        bound,
        str(n),
        _fmt(rate),
        _fmt(rate / _LN2),
        _fmt(ci[0]),
        _fmt(ci[1]),
        cf.BOUNDS[bound].side,
        str(cfg.seed),
        str(cfg.samples),
    ]
    return ",".join(cells)


def run_sweep(req):
    """Evaluate every requested bound on the blocklength grid; returns CSV lines."""
    rows = []
    for bound in req.bounds:
        offset = functools.partial(mc.substream_index, cf.BOUND_NAMES.index(bound))
        pairs = cf.BOUNDS[bound].evaluate(req, offset)
        rows += [_row(bound, n, rate, ci, req.mc) for n, (rate, ci) in zip(req.n_grid, pairs, strict=True)]
    return rows


def _emit(rows, output):
    text = "\n".join([CSV_HEADER, *rows]) + "\n"
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _channel_args(parser):
    parser.add_argument("--t", type=int, default=1, help="transmit antennas")
    parser.add_argument("--r", type=int, default=1, help="receive antennas")
    parser.add_argument("--snr-db", type=float, required=True)
    parser.add_argument("--fading", dest="fading.kind", choices=list(cf.FADINGS))
    parser.add_argument("--k-db", dest="fading.k_db", metavar="K_DB", type=float, help="Rician K-factor in dB")
    parser.add_argument("--m-shape", dest="fading.m_shape", metavar="M_SHAPE", type=float, help="Nakagami shape")
    parser.add_argument("--cov", choices=list(cf.COVARIANCES))


def _run_args(parser):
    """The flags of every command that runs a sweep."""
    parser.add_argument("--seed", type=int)
    parser.add_argument("--samples", type=int)
    parser.add_argument("--n-grid", help="a:b:step, geom:a:b:points, or comma list")
    parser.add_argument("--output", help="CSV output path (default stdout)")


def _bound_args(parser):
    parser.add_argument("--confidence-delta", type=float)
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--tau", help="a number, or 'grid' for the default search")
    parser.add_argument("--n", type=int, help="single blocklength")


def _request(args):
    """The command's config mapping (the config file for `sweep`, the preset
    for `figure`, the channel flags and the bound's name otherwise) with the
    flags that were given laid over it, parsed by `config`."""
    if args.command == "sweep":
        with open(args.config) as fh:
            kv = cf.parse_config_text(fh.read())
    elif args.command == "figure":
        kv = cf.figure_preset(args.name)
    else:
        # a command that takes a single bound is named after it
        bound = getattr(args, "name", args.command)
        kv = {"antennas": f"{args.t}x{args.r}", "snr_db": str(args.snr_db), "bounds": bound}
    # a flag that sets a config key has that key as its dest; --n is a
    # one-point grid, and an empty --n-grid or --output counts as not given
    given = {**vars(args), "n_grid": args.n_grid or getattr(args, "n", None), "output": args.output or None}
    kv.update((key, str(given[key])) for key in cf.KEYS if given.get(key) is not None)
    return cf.request_from_mapping(kv)


# the subcommands that evaluate one bound of config.BOUNDS on a channel given
# by flags, in the order `fbl --help` lists them
_BOUND_COMMANDS = {
    "outage": "outage probability at a rate",
    "eps-capacity": "epsilon-capacity (outage capacity)",
    "bound": "one achievability/converse bound",
    "approx": "normal approximation or AWGN reference",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fbl",
        description="Finite-blocklength bounds for quasi-static MIMO fading channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in _BOUND_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        names = [b for b, entry in cf.BOUNDS.items() if entry.command == command]
        if len(names) > 1:
            p.add_argument("name", choices=names)
        _channel_args(p)
        _run_args(p)
        _bound_args(p)
        if command == "outage":
            p.add_argument("--rate-bits", type=float, required=True)

    p = sub.add_parser("sweep", help="run a sweep from a config file")
    p.add_argument("--config", required=True)
    _run_args(p)

    p = sub.add_parser("figure", help="run a figure preset")
    p.add_argument("name", choices=list(cf.PRESETS))
    _run_args(p)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        mc.worker_count()  # reject a bad FBL_THREADS before any work
        req = _request(args)
        _emit(run_sweep(req), req.output)
    except (ConfigurationError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
