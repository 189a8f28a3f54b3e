"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Every line is also collected in REPORT_LINES; the conftest terminal-summary
hook replays them after the run, so they appear even under output capture.
"""

import functools
import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy import stats

import oracles
from fbl import achievability as ach
from fbl import approx as ap
from fbl import channel as ch
from fbl import converse as cv
from fbl import mc
from fbl import outage as og
from fbl import specfun as sf
from fbl.config import db_to_linear

L2 = math.log(2.0)

FIG2_SPEC = ch.ChannelSpec(
    t=1, r=2, snr=db_to_linear(-1.55), fading=ch.Rician(k_factor=db_to_linear(20.0))
)
FIG3_SPEC = ch.ChannelSpec(t=2, r=3, snr=db_to_linear(2.12), fading=ch.Rayleigh())

CFG = mc.MCConfig(seed=17, samples=100_000)


REPORT_LINES = []


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    REPORT_LINES.append(line)
    assert ok, line


@functools.lru_cache(maxsize=None)
def _conv_fig2(n):
    """Converse on the fig-2 setting at blocklength n."""
    return cv.converse_simo(FIG2_SPEC, n, 1e-3)


@functools.lru_cache(maxsize=None)
def _kb_fig2(n):
    return ach.csir_kappa_beta_simo(FIG2_SPEC, n, 1e-3, None)


@functools.lru_cache(maxsize=None)
def _normal_fig2():
    return ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), 1e-3, CFG)


def test_criterion_1_fig2_epsilon_capacity(monkeypatch):
    monkeypatch.setattr(mc, "CHUNK", 65_536)
    cfg = mc.MCConfig(seed=21, samples=10_000_000)
    start = time.perf_counter()
    value, _ = og.epsilon_capacity(FIG2_SPEC, ch.WaterFill(), 1e-3, cfg)
    elapsed = time.perf_counter() - start
    bits = value / L2
    ok = abs(bits - 1.0) <= 0.01 and elapsed <= 60.0
    _report(1, ok, f"fig-2 C_eps = {bits:.4f} bits with 1e7 samples in {elapsed:.1f} s")


def test_criterion_2_fig3_epsilon_capacity(monkeypatch):
    monkeypatch.setattr(mc, "CHUNK", 65_536)
    cfg = mc.MCConfig(seed=22, samples=10_000_000)
    value, _ = og.epsilon_capacity(FIG3_SPEC, ch.Isotropic(), 1e-3, cfg)
    bits = value / L2
    _report(2, abs(bits - 1.0) <= 0.01, f"fig-3 C_iso = {bits:.4f} bits")


def test_criterion_3_ninety_percent_blocklengths():
    step = 20
    cfg_ach = mc.MCConfig(seed=23, samples=1_000_000)
    gains = og.gain_sample(FIG2_SPEC, ch.Isotropic(), cfg_ach, 0)
    ach_100, _ = ach.rate_lower_bound(FIG2_SPEC, 100, 1e-3, None, cfg_ach, 0, gains)
    crossing = None
    for n in (460, 480, 480 + step):
        rate, _ = ach.rate_lower_bound(FIG2_SPEC, n, 1e-3, None, cfg_ach, 0, gains)
        if rate / L2 >= 0.9:
            crossing = n
            break
    conv_320 = _conv_fig2(320)[0] / L2
    conv_340 = _conv_fig2(340)[0] / L2
    conv_800 = _conv_fig2(800)[0] / L2
    ok = (
        ach_100 / L2 < 0.9
        and crossing is not None
        and crossing <= 480 + step
        and max(conv_320, conv_340) >= 0.9
        and conv_800 >= 0.9
    )
    _report(
        3,
        ok,
        f"ach(no-CSI): {ach_100 / L2:.3f} bits at n=100, >=0.9 first at n={crossing}; "
        f"converse {conv_320:.3f}/{conv_340:.3f}/{conv_800:.3f} bits at n=320/340/800",
    )


def test_criterion_4_awgn_ninety_percent_blocklength():
    target = 0.9 * L2
    n = 2
    while ap.awgn_reference_rate(1.0, n, 1e-3) < target:
        n += 1
    _report(4, abs(n - 1420) <= 0.05 * 1420, f"awgn reference reaches 0.9 bit at n = {n}")


def test_criterion_5_normal_approximation_gap():
    model = _normal_fig2()
    worst_conv = worst_kb = 0.0
    details = []
    for n in (400, 600, 800, 1000):
        rn = model.rate(n)
        conv, conv_ci = _conv_fig2(n)
        kb, kb_ci = _kb_fig2(n)
        ci = (abs(conv_ci[1] - conv_ci[0]) + abs(kb_ci[1] - kb_ci[0])) / L2
        gap_conv = abs(rn - conv) / L2 - ci
        gap_kb = abs(rn - kb) / L2 - ci
        worst_conv = max(worst_conv, gap_conv)
        worst_kb = max(worst_kb, gap_kb)
        details.append(f"n={n}: conv {gap_conv:.3f}, kb {gap_kb:.3f}")
    ok = worst_conv < 0.02 and worst_kb < 0.02
    _report(
        5,
        ok,
        "gaps beyond joint CI (bits): " + "; ".join(details)
        + " [ci and normal-approximation definitions: docs/DECISIONS.md]",
    )


def test_criterion_6_sandwich():
    start = time.perf_counter()
    # both sides are conservative bounds already; the slack only absorbs
    # floating-point rounding, not the width of the converse interval
    slack = 1e-9
    violations = []
    # each bound's channel gains are drawn once and serve every n
    gains = og.gain_sample(FIG2_SPEC, ch.WaterFill(), CFG, 0)
    for n in (100, 200, 400, 800):
        conv, _ = _conv_fig2(n)
        for rate, _ in (
            ach.rate_lower_bound(FIG2_SPEC, n, 1e-3, None, CFG, 0, gains),
            _kb_fig2(n),
        ):
            if rate > conv + slack:
                violations.append(f"fig2 n={n}")
    conv_gains = cv.iso_gains(FIG3_SPEC, CFG, 0)
    gains = og.gain_sample(FIG3_SPEC, ch.Isotropic(), CFG, 0)
    for n in (100, 200, 400, 800):
        conv, _ = cv.converse_iso(FIG3_SPEC, n, 1e-3, CFG, 0, conv_gains)
        rate, _ = ach.rate_lower_bound(FIG3_SPEC, n, 1e-3, None, CFG, 0, gains)
        if rate > conv + slack:
            violations.append(f"fig3 n={n}")
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed <= 900.0
    _report(6, ok, f"violations: {violations or 'none'}; runtime {elapsed:.0f} s")


def test_criterion_7_oracle_equivalences():
    timings = {}

    start = time.perf_counter()
    ok_a = True
    rng = np.random.default_rng(71)
    for n in (10, 100):
        for a in (0.1, 1.0, 10.0):
            size = 20_000
            z = (rng.standard_normal((size, n)) + 1j * rng.standard_normal((size, n))) * math.sqrt(0.5)
            head = math.log1p(a) + 1.0
            s_dir = head - np.sum(np.abs(math.sqrt(a) * z - 1.0) ** 2, axis=1) / ((1.0 + a) * n)
            l_dir = head - np.sum(np.abs(math.sqrt(a) * z - math.sqrt(1.0 + a)) ** 2, axis=1) / n
            gen = mc.rng(72, n)
            s_imp = head - (a / (2.0 * (1.0 + a))) * sf.sample_noncentral_chi2(
                2 * n, np.full(size, 2.0 * n / a), gen
            ) / n
            l_imp = head - (a / 2.0) * sf.sample_noncentral_chi2(
                2 * n, np.full(size, 2.0 * n * (1.0 + a) / a), gen
            ) / n
            ok_a &= stats.ks_2samp(s_dir, s_imp).pvalue > 0.01
            ok_a &= stats.ks_2samp(l_dir, l_imp).pvalue > 0.01
    timings["a"] = time.perf_counter() - start

    start = time.perf_counter()
    n, r = 10, 3
    prod = np.ones(100_000)
    for i in range(1, r + 1):
        prod *= rng.beta(n - i, 1, 100_000)
    ok_b = stats.kstest(prod, lambda v: stats.beta.cdf(v, n - r, r)).pvalue > 0.01
    timings["b"] = time.perf_counter() - start

    start = time.perf_counter()
    worst_c = worst_d = 0.0
    for _ in range(1000):
        rows = int(rng.integers(5, 12))
        k1 = int(rng.integers(1, 3))
        k2 = int(rng.integers(1, rows - k1 - 1))
        a1 = rng.standard_normal((rows, k1)) + 1j * rng.standard_normal((rows, k1))
        a2 = rng.standard_normal((rows, k2)) + 1j * rng.standard_normal((rows, k2))
        got = oracles.subspace_sin2(a1, a2)
        qa, _ = np.linalg.qr(a1)
        qb, _ = np.linalg.qr(a2)
        svals = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
        oracle = float(np.prod(1.0 - np.clip(svals[: min(k1, k2)], 0, 1) ** 2))
        worst_c = max(worst_c, abs(got - oracle))
        joint = np.concatenate([a1, a2], axis=1)
        lhs = np.linalg.det(joint.conj().T @ joint).real
        rhs = np.linalg.det(a1.conj().T @ a1).real * np.linalg.det(a2.conj().T @ a2).real * got
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst_d = max(worst_d, abs(lhs - rhs) / scale)
    ok_c = worst_c < 1e-8
    ok_d = worst_d < 1e-8
    timings["cd"] = time.perf_counter() - start

    start = time.perf_counter()
    ok_e = True
    for n_e, t_eff, r_e in ((20, 2, 1), (50, 2, 2), (300, 3, 2)):
        for lg in (-0.05, -0.5, -2.0):
            exact = ach.beta_product_log_tail(n_e, t_eff, r_e, lg)
            ok_e &= exact <= oracles.markov_log_tail(n_e, t_eff, r_e, lg) + 1e-12
    # g = 0.75 leaves ~5e-4 tail mass, resolvable with 2e6 draws
    n_e, t_eff, r_e, g = 50, 2, 2, 0.75
    draws = 2_000_000
    prod = np.ones(draws)
    gen = mc.rng(73, 0)
    for j in range(1, r_e + 1):
        prod *= gen.beta(n_e - t_eff - j + 1, t_eff, draws)
    hits = int(np.count_nonzero(prod <= g))
    mc_lo = mc.cp_lower(hits, draws, 0.005)
    ok_e &= ach.beta_product_log_tail(n_e, t_eff, r_e, math.log(g)) >= math.log(mc_lo)
    timings["e"] = time.perf_counter() - start

    ok = ok_a and ok_b and ok_c and ok_d and ok_e and all(t <= 60.0 for t in timings.values())
    _report(
        7,
        ok,
        f"(a) KS {'ok' if ok_a else 'FAIL'} {timings['a']:.0f}s; (b) beta-product KS "
        f"{'ok' if ok_b else 'FAIL'}; (c) sin2 max err {worst_c:.1e}; (d) det identity max err "
        f"{worst_d:.1e}; (e) exact-tail bracketing {'ok' if ok_e else 'FAIL'}",
    )


def test_criterion_8_asymptotic_constants():
    spec = ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rayleigh())
    csirt = [oracles.log_c_csirt(spec, n, CFG) - 0.5 * spec.m * math.log(n) for n in (10, 100, 1000)]
    csir = [oracles.log_c_csir(spec, n, CFG) - 0.5 * spec.r**2 * math.log(n) for n in (10, 100, 1000)]
    d1 = max(csirt) - min(csirt)
    d2 = max(csir) - min(csir)
    _report(8, d1 < 1.5 and d2 < 1.5, f"normalized drifts: csirt {d1:.2f}, csir {d2:.2f} nats")


def test_criterion_9_thread_determinism():
    argv = [
        sys.executable, "-m", "fbl.cli", "figure", "fig2", "--seed", "7",
        "--samples", "20000", "--n-grid", "40,80",
    ]
    outputs = []
    codes = []
    for threads in (1, 4, 8):
        env = dict(os.environ, FBL_THREADS=str(threads))
        res = subprocess.run(argv, capture_output=True, env=env)
        outputs.append(res.stdout)
        codes.append(res.returncode)
    ok = codes == [0, 0, 0] and outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0
    _report(9, ok, f"fig2 CSV byte-identical across FBL_THREADS 1/4/8 ({len(outputs[0])} bytes)")
