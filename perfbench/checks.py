"""Output checks of the benchmark, made apart from the program.

Every check takes the CSV texts a round printed (one per CLI call of the
workload) and returns a list of failure messages; an empty list passes.
The references are computed here with scipy, or are properties every
correct output has:

- the Fig. 2 channel (1 x 2 Rician, water-filling, so C = ln(1 + rho |h|^2))
  has a closed-form capacity law: 2 (K + 1) |h|^2 is noncentral chi-square
  with 2r degrees of freedom and noncentrality 2rK. Outage probabilities and
  the epsilon-capacity are checked against it with tolerances taken from the
  binomial (resp. order-statistic beta) law at tail mass ALPHA per side, so a
  correct program fails with probability about 1e-9 on any seed;
- `awgn` rows against the closed form C - sqrt(V/n) Qinv(eps) + ln(n)/(2n);
- achievability <= converse at every n, and the documented `ci` ends;
- on the 4 x 4 channel, water-filling epsilon-capacity >= isotropic (both
  use the same channel draws, and water-filling is optimal per draw);
- the paper's headline: the best Fig. 2 achievability bound reaches
  0.9 C_eps at the largest n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

import workloads as wl

HEADER = "bound,n,rate_nats,rate_bits,ci_lo,ci_hi,side,seed,samples"
ALPHA = 1e-9
CONFIDENCE_DELTA = 0.01  # the CLI default the workloads run with
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Row:
    bound: str
    n: int
    rate_nats: float
    rate_bits: float
    ci_lo: float
    ci_hi: float
    side: str
    seed: int
    samples: int


def parse_csv(text):
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        b, n, rn, rb, lo, hi, side, seed, samples = line.split(",")
        rows.append(Row(b, int(n), float(rn), float(rb), float(lo), float(hi), side, int(seed), int(samples)))
    return rows


def _arg(call, flag):
    return call[call.index(flag) + 1]


# ---- closed forms -------------------------------------------------------


def fig2_capacity_cdf(c_nats):
    """P[C(H) < c] on the Fig. 2 channel under water-filling (t = 1)."""
    ch = wl.FIG2_CHANNEL
    rho = 10.0 ** (ch["snr_db"] / 10.0)
    k = 10.0 ** (ch["k_db"] / 10.0)
    r = ch["r"]
    return float(stats.ncx2.cdf(2.0 * (k + 1.0) * math.expm1(c_nats) / rho, 2 * r, 2 * r * k))


def fig2_epsilon_capacity(epsilon):
    """Exact epsilon-capacity of the Fig. 2 channel, in nats."""
    ch = wl.FIG2_CHANNEL
    rho = 10.0 ** (ch["snr_db"] / 10.0)
    k = 10.0 ** (ch["k_db"] / 10.0)
    r = ch["r"]
    x = float(stats.ncx2.ppf(epsilon, 2 * r, 2 * r * k))
    return math.log1p(rho * x / (2.0 * (k + 1.0)))


def awgn_rate(snr_db, n, epsilon):
    rho = 10.0 ** (snr_db / 10.0)
    v = rho * (rho + 2.0) / (1.0 + rho) ** 2
    return math.log1p(rho) - math.sqrt(v / n) * float(stats.norm.isf(epsilon)) + math.log(n) / (2.0 * n)


def _cp_interval(k, trials, delta):
    """Two-sided Clopper-Pearson interval at confidence 1 - delta, elementwise in k."""
    k = np.asarray(k)
    half = 0.5 * delta
    with np.errstate(invalid="ignore"):
        lo = np.where(k <= 0, 0.0, stats.beta.ppf(half, k, trials - k + 1))
        hi = np.where(k >= trials, 1.0, stats.beta.isf(half, k + 1, trials - k))
    return lo, hi


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def successes_from_interval(lo, hi, trials, delta=CONFIDENCE_DELTA):
    """The success count whose Clopper-Pearson interval the row reports, or None."""
    mid = round(0.5 * (lo + hi) * trials)
    width = 20 + int(10 * math.sqrt(mid + 1))
    k = np.arange(max(0, mid - width), min(trials, mid + width) + 1)
    c_lo, c_hi = _cp_interval(k, trials, delta)
    scale = np.maximum(np.maximum(np.abs(c_lo), abs(lo)), 1e-300)
    match = (np.abs(c_lo - lo) <= 1e-9 * scale) & (np.abs(c_hi - hi) <= 1e-9 * max(hi, 1e-300))
    return int(k[match][0]) if match.any() else None


# ---- row-level checks ---------------------------------------------------


def check_rate_bits(rows):
    return [
        f"{r.bound} n={r.n}: rate_bits {r.rate_bits!r} != rate_nats / ln 2"
        for r in rows
        if abs(r.rate_bits - r.rate_nats / _LN2) > 1e-10 * max(1.0, abs(r.rate_bits))
    ]


def check_ci_ends(rows):
    """The `ci` ends the README documents for each bound."""
    bad = []
    for r in rows:
        if r.bound in ("conv-simo", "conv-iso"):
            ok = r.ci_hi == r.rate_nats and r.ci_lo <= r.ci_hi
        elif r.bound == "ach-csir-kb":
            ok = r.ci_lo == r.rate_nats and r.ci_lo <= r.ci_hi
        elif r.bound.startswith("ach-") or r.bound in ("normal", "awgn"):
            ok = r.ci_lo == r.rate_nats == r.ci_hi
        elif r.bound == "eps-capacity":
            ok = r.ci_lo <= r.rate_nats <= r.ci_hi
        elif r.bound == "outage":
            ok = 0.0 <= r.ci_lo <= r.ci_hi <= 1.0
        else:
            ok = False
        if not ok:
            bad.append(f"{r.bound} n={r.n}: ci ({r.ci_lo!r}, {r.ci_hi!r}) has the wrong ends for rate {r.rate_nats!r}")
    return bad


def check_sandwich(rows):
    """Every achievability row is at most the converse row at the same n."""
    conv = {r.n: r.rate_nats for r in rows if r.bound.startswith("conv-")}
    bad = []
    for r in rows:
        if not r.bound.startswith("ach-"):
            continue
        if r.n not in conv:
            bad.append(f"{r.bound} n={r.n}: no converse row")
        elif r.rate_nats > conv[r.n]:
            bad.append(f"{r.bound} n={r.n}: achievability {r.rate_nats!r} above converse {conv[r.n]!r}")
    return bad


def check_awgn(rows, snr_db, epsilon):
    bad = []
    for r in rows:
        if r.bound == "awgn" and not _close(r.rate_nats, awgn_rate(snr_db, r.n, epsilon)):
            bad.append(f"awgn n={r.n}: {r.rate_nats!r} != closed form {awgn_rate(snr_db, r.n, epsilon)!r}")
    return bad


def check_headline(rows, epsilon):
    """The best achievability row at the largest n reaches 0.9 C_eps."""
    n_max = max(r.n for r in rows)
    best = max((r.rate_nats for r in rows if r.n == n_max and r.bound.startswith("ach-")), default=None)
    target = 0.9 * fig2_epsilon_capacity(epsilon)
    if best is None or best < target:
        return [f"best achievability at n={n_max} is {best!r} nats, below 0.9 C_eps = {target!r}"]
    return []


def check_outage_row(row, rate_bits, trials):
    """Outage row against the exact outage probability of the Fig. 2 channel."""
    if not _close(row.rate_nats, rate_bits * _LN2):
        return [f"outage row rate {row.rate_nats!r} is not {rate_bits} bits"]
    k = successes_from_interval(row.ci_lo, row.ci_hi, trials)
    if k is None:
        return [f"outage rate {rate_bits}: ({row.ci_lo!r}, {row.ci_hi!r}) is no Clopper-Pearson interval"]
    p = fig2_capacity_cdf(row.rate_nats)
    lo, hi = stats.binom.ppf(ALPHA, trials, p), stats.binom.isf(ALPHA, trials, p)
    if not lo <= k <= hi:
        return [f"outage rate {rate_bits}: {k} outages in {trials}, exact p = {p:.6g} allows [{lo:g}, {hi:g}]"]
    return []


def check_fig2_eps_capacity(row, epsilon, trials):
    """Epsilon-capacity against the exact law: F(X_(k)) ~ Beta(k, N - k + 1)."""
    k = max(1, math.ceil(epsilon * trials))
    u = fig2_capacity_cdf(row.rate_nats)
    lo = float(stats.beta.ppf(ALPHA, k, trials - k + 1))
    hi = float(stats.beta.isf(ALPHA, k, trials - k + 1))
    if not lo <= u <= hi:
        return [f"eps-capacity {row.rate_nats!r} nats sits at F = {u:.6g}, outside [{lo:.6g}, {hi:.6g}]"]
    return []


# ---- workloads ----------------------------------------------------------

FIGURE_BOUNDS = {"fig3": ("ach-nocsi", "conv-iso", "normal")}


def _check_call_rows(workload, outputs):
    """Parse each call's CSV; its rows must be the call's bounds, grid, seed and samples."""
    rows, bad = [], []
    for call, text in zip(workload.calls, outputs, strict=True):
        got = parse_csv(text)
        if call[0] == "figure":
            bounds = FIGURE_BOUNDS[call[1]]
            grid = [int(x) for x in _arg(call, "--n-grid").split(",")]
        else:
            bounds, grid = (call[1],), [int(_arg(call, "--n"))]
        want = [(b, n, workload.program_seed, int(_arg(call, "--samples"))) for b in bounds for n in grid]
        have = [(r.bound, r.n, r.seed, r.samples) for r in got]
        if have != want:
            bad.append(f"{' '.join(call)}: rows {have} != expected {want}")
        rows += got
    return rows, bad


def check_fig2(workload, outputs):
    rows, bad = _check_call_rows(workload, outputs)
    bad += check_rate_bits(rows) + check_ci_ends(rows) + check_sandwich(rows)
    bad += check_awgn(rows, wl.FIG2_CHANNEL["snr_db"], wl.EPSILON)
    return bad + check_headline(rows, wl.EPSILON)


def check_fig3(workload, outputs):
    rows, bad = _check_call_rows(workload, outputs)
    return bad + check_rate_bits(rows) + check_ci_ends(rows) + check_sandwich(rows)


def check_outage_mt(workload, outputs):
    bad = []
    by_cov = {}
    for call, text in zip(workload.calls, outputs, strict=True):
        rows = parse_csv(text)
        if len(rows) != 1:
            bad.append(f"{' '.join(call)}: {len(rows)} rows")
            continue
        (row,) = rows
        bad += check_rate_bits(rows) + check_ci_ends(rows)
        trials = int(_arg(call, "--samples"))
        fig2 = "--k-db" in call
        if call[0] == "outage" and fig2:
            bad += check_outage_row(row, float(_arg(call, "--rate-bits")), trials)
        elif call[0] == "eps-capacity" and fig2:
            bad += check_fig2_eps_capacity(row, wl.EPSILON, trials)
        elif call[0] == "eps-capacity" and _arg(call, "--t") == "4":
            by_cov[_arg(call, "--cov")] = row
    iso, wf = by_cov.get("iso"), by_cov.get("waterfill")
    if iso is None or wf is None:
        bad.append("missing a 4 x 4 eps-capacity row")
    else:
        for field in ("rate_nats", "ci_lo", "ci_hi"):
            if getattr(wf, field) < getattr(iso, field):
                bad.append(f"4x4 water-filling {field} {getattr(wf, field)!r} below isotropic {getattr(iso, field)!r}")
    return bad


CHECKS = {"fig2-simo": check_fig2, "fig3-mimo": check_fig3, "outage-mt": check_outage_mt}


def check(workload, outputs):
    try:
        return CHECKS[workload.name](workload, outputs)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]


def bound_gap_bits(workload, outputs):
    """Mean width, in bits, of what the workload certifies about the rate.

    fig2-simo, fig3-mimo: converse minus the best achievability row, per n.
    outage-mt: ci_hi - ci_lo of each eps-capacity row.
    """
    rows = [r for text in outputs for r in parse_csv(text)]
    if workload.name == "outage-mt":
        widths = [r.ci_hi - r.ci_lo for r in rows if r.bound == "eps-capacity"]
    else:
        conv = {r.n: r.rate_nats for r in rows if r.bound.startswith("conv-")}
        ach = {}
        for r in rows:
            if r.bound.startswith("ach-"):
                ach[r.n] = max(ach.get(r.n, -math.inf), r.rate_nats)
        widths = [conv[n] - ach[n] for n in sorted(conv)]
    return sum(widths) / len(widths) / _LN2
