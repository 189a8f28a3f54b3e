"""`fbl` command-line front end.

Emits CSV with the schema
    bound,n,rate_nats,rate_bits,ci_lo,ci_hi,side,seed,samples
for every command. Rows are deterministic for a fixed seed regardless of the
FBL_THREADS worker count. Exit codes: 0 success, 2 configuration error,
3 numerical/convergence error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from . import achievability as ach
from . import approx as ap
from . import channel as chn
from . import config as cf
from . import converse as cv
from . import mc
from . import outage as og
from .bounds import BoundPoint
from .errors import ConfigurationError, ConvergenceError, DomainError

CSV_HEADER = "bound,n,rate_nats,rate_bits,ci_lo,ci_hi,side,seed,samples"
_LN2 = math.log(2.0)


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.12g}"


def _row(bound, n, rate_nats, ci, side, seed, samples):
    lo, hi = ci if ci is not None else (rate_nats, rate_nats)
    cells = [
        bound,
        str(n),
        _fmt(rate_nats),
        _fmt(rate_nats / _LN2),
        _fmt(lo),
        _fmt(hi),
        side,
        str(seed),
        str(samples),
    ]
    return ",".join(cells)


def _point_row(bound, point, seed, samples):
    return _row(bound, point.n, point.rate_nats, point.ci, point.side, seed, samples)


def _bound_offset(bound, n):
    return mc.substream_index(cf.BOUND_NAMES.index(bound), n)


def run_sweep(req):
    """Evaluate every requested bound on the blocklength grid; returns CSV lines."""
    req.validate()
    spec, cfg = req.spec, req.mc
    rows = []
    normal_cache = None
    for bound in req.bounds:
        for n in req.n_grid:
            offset = _bound_offset(bound, n)
            if bound in ("ach-csit", "ach-simo"):
                # one bound under two names: ach-simo is the t = 1 case, and
                # each name keeps its own stream offset from BOUND_NAMES
                point = ach.rate_lower_bound(
                    spec, chn.WaterFill(), n, req.epsilon, req.tau, cfg, stream_offset=offset
                )
            elif bound == "ach-nocsi":
                cov = req.cov if isinstance(req.cov, (chn.Isotropic, chn.Fixed)) else chn.Isotropic()
                point = ach.rate_lower_bound(
                    spec, cov, n, req.epsilon, req.tau, cfg, stream_offset=offset
                )
            elif bound == "ach-csir-kb":
                point = ach.csir_kappa_beta_simo(
                    spec, n, req.epsilon, req.tau, cfg, stream_offset=offset
                )
            elif bound == "conv-simo":
                point = cv.converse_simo(spec, n + 1, req.epsilon, cfg, stream_offset=offset)
            elif bound == "conv-iso":
                point = cv.converse_iso(spec, n, req.epsilon, cfg, stream_offset=offset)
            elif bound == "normal":
                if normal_cache is None:
                    normal_cache = ap.NormalApprox(
                        spec, req.cov, cfg, stream_offset=_bound_offset("normal", 0)
                    )
                rate = normal_cache.rate(n, req.epsilon)
                point = BoundPoint(n=n, epsilon=req.epsilon, rate_nats=rate, side="estimate")
            elif bound == "awgn":
                rate = ap.awgn_reference_rate(spec.snr, n, req.epsilon)
                point = BoundPoint(n=n, epsilon=req.epsilon, rate_nats=rate, side="estimate")
            elif bound == "outage":
                est = og.outage_probability(spec, req.cov, req.rate_nats, cfg, stream_offset=offset)
                rows.append(
                    _row(
                        bound,
                        n,
                        req.rate_nats,
                        (est.cp_lower, est.cp_upper),
                        "outage",
                        cfg.seed,
                        cfg.samples,
                    )
                )
                continue
            elif bound == "eps-capacity":
                q = og.epsilon_capacity(spec, req.cov, req.epsilon, cfg, stream_offset=offset)
                if q.ci_hi - q.ci_lo < 1e-9 * max(1.0, abs(q.value)):
                    print(
                        "warning: capacity quantile is epsilon-independent "
                        "(degenerate fading?)",
                        file=sys.stderr,
                    )
                rows.append(
                    _row(bound, n, q.value, (q.ci_lo, q.ci_hi), "estimate", cfg.seed, cfg.samples)
                )
                continue
            else:
                raise ConfigurationError(f"unknown bound: {bound}")
            rows.append(_point_row(bound, point, cfg.seed, cfg.samples))
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
    parser.add_argument(
        "--fading", choices=["rayleigh", "rician", "nakagami"], default="rayleigh"
    )
    parser.add_argument("--k-db", type=float, help="Rician K-factor in dB")
    parser.add_argument("--m-shape", type=float, help="Nakagami shape")
    parser.add_argument("--cov", choices=["iso", "waterfill"], default="iso")


def _mc_args(parser):
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--chunk-size", type=int, default=4096)
    parser.add_argument("--confidence-delta", type=float, default=0.01)


def _sweep_args(parser):
    parser.add_argument("--epsilon", type=float, default=1e-3)
    parser.add_argument("--tau", default="grid", help="a number, or 'grid' for the default search")
    parser.add_argument("--n", type=int, help="single blocklength")
    parser.add_argument("--n-grid", help="a:b:step, geom:a:b:points, or comma list")
    parser.add_argument("--output", help="CSV output path (default stdout)")


def _request_from_args(args, bounds, rate_bits=None):
    kv = {
        "antennas": f"{args.t}x{args.r}",
        "snr_db": str(args.snr_db),
        "fading.kind": args.fading,
        "cov": args.cov,
        "epsilon": str(args.epsilon),
        "tau": args.tau,
        "seed": str(args.seed),
        "samples": str(args.samples),
        "chunk_size": str(args.chunk_size),
        "confidence_delta": str(args.confidence_delta),
        "bounds": ",".join(bounds),
    }
    if args.k_db is not None:
        kv["fading.k_db"] = str(args.k_db)
    if args.m_shape is not None:
        kv["fading.m_shape"] = str(args.m_shape)
    if args.n_grid:
        kv["n_grid"] = args.n_grid
    elif args.n is not None:
        kv["n_grid"] = str(args.n)
    else:
        kv["n_grid"] = "100"
    if rate_bits is not None:
        kv["rate_bits"] = str(rate_bits)
    if args.output:
        kv["output"] = args.output
    return cf.request_from_mapping(kv)


def _apply_overrides(req, args):
    """CLI flags override config-file/preset values."""
    changes = {}
    if getattr(args, "n_grid", None):
        changes["n_grid"] = cf.parse_n_grid(args.n_grid)
    if getattr(args, "output", None):
        changes["output"] = args.output
    mc_changes = {}
    if getattr(args, "seed", None) is not None:
        mc_changes["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        mc_changes["samples"] = args.samples
    if mc_changes:
        changes["mc"] = mc.MCConfig(
            seed=mc_changes.get("seed", req.mc.seed),
            samples=mc_changes.get("samples", req.mc.samples),
            confidence_delta=req.mc.confidence_delta,
            chunk_size=req.mc.chunk_size,
        )
    if changes:
        req = replace(req, **changes)
    return req


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fbl",
        description="Finite-blocklength bounds for quasi-static MIMO fading channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outage", help="outage probability at a rate")
    _channel_args(p)
    _mc_args(p)
    _sweep_args(p)
    p.add_argument("--rate-bits", type=float, required=True)

    p = sub.add_parser("eps-capacity", help="epsilon-capacity (outage capacity)")
    _channel_args(p)
    _mc_args(p)
    _sweep_args(p)

    p = sub.add_parser("bound", help="one achievability/converse bound")
    p.add_argument("name", choices=[b for b in cf.BOUND_NAMES if b not in ("normal", "awgn", "outage", "eps-capacity")])
    _channel_args(p)
    _mc_args(p)
    _sweep_args(p)

    p = sub.add_parser("approx", help="normal approximation or AWGN reference")
    p.add_argument("name", choices=["normal", "awgn"])
    _channel_args(p)
    _mc_args(p)
    _sweep_args(p)

    p = sub.add_parser("sweep", help="run a sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--n-grid")
    p.add_argument("--output")

    p = sub.add_parser("figure", help="run a figure preset")
    p.add_argument("name", choices=["fig2", "fig3", "fig5"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--samples", type=int)
    p.add_argument("--n-grid")
    p.add_argument("--output")

    return parser


def _dispatch(args):
    if args.command in ("outage", "eps-capacity"):
        bound = "outage" if args.command == "outage" else "eps-capacity"
        req = _request_from_args(args, [bound], rate_bits=getattr(args, "rate_bits", None))
        _emit(run_sweep(req), req.output)
        return
    if args.command in ("bound", "approx"):
        req = _request_from_args(args, [args.name])
        _emit(run_sweep(req), req.output)
        return
    if args.command == "sweep":
        with open(args.config) as fh:
            req = cf.parse_config_text(fh.read())
        req = _apply_overrides(req, args)
        _emit(run_sweep(req), req.output)
        return
    if args.command == "figure":
        req = cf.figure_preset(args.name, seed=args.seed)
        req = _apply_overrides(req, args)
        _emit(run_sweep(req), req.output)
        return
    raise ConfigurationError(f"unknown command: {args.command}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        mc.worker_count()  # reject a bad FBL_THREADS before any work
        _dispatch(args)
    except (ConfigurationError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
