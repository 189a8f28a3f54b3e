"""Fast tests of the benchmark's output checks and of the tracer.

Each check must pass on a correct output and fail when one row is broken.
Run with `PYTHONPATH=src python -m pytest perfbench -q`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

import checks
import tracer
import workloads as wl


def _fmt(x):
    return f"{x:.12g}"


def _row(bound, n, rate, lo=None, hi=None, side="lower", seed=1, samples=100):
    lo = rate if lo is None else lo
    hi = rate if hi is None else hi
    cells = [bound, str(n), _fmt(rate), _fmt(rate / math.log(2.0)), _fmt(lo), _fmt(hi), side, str(seed), str(samples)]
    return ",".join(cells)


def _csv(rows):
    return "\n".join([checks.HEADER, *rows]) + "\n"


def _fig2_outputs(w, ach=None, awgn_shift=0.0):
    """One CSV per call of the fig2-simo workload, each row a plausible value."""
    c_eps = checks.fig2_epsilon_capacity(wl.EPSILON)
    ach = 0.93 * c_eps if ach is None else ach
    conv = 0.98 * c_eps
    n = wl.FIG2_N
    awgn = checks.awgn_rate(wl.FIG2_CHANNEL["snr_db"], n, wl.EPSILON) + awgn_shift
    rows = {
        "ach-simo": dict(rate=0.9 * ach),
        "ach-csir-kb": dict(rate=ach, hi=ach + 0.01),
        "conv-simo": dict(rate=conv, lo=conv - 0.01, side="upper"),
        "normal": dict(rate=0.95 * c_eps, side="estimate"),
        "awgn": dict(rate=awgn, side="estimate"),
    }
    return [
        _csv([_row(call[1], n, seed=w.program_seed, samples=int(checks._arg(call, "--samples")), **rows[call[1]])])
        for call in w.calls
    ]


@pytest.fixture
def fig2():
    return wl.build("fig2-simo", 3)


def test_fig2_correct_output_passes(fig2):
    assert checks.check(fig2, _fig2_outputs(fig2)) == []


def test_fig2_sandwich_violation_fails(fig2):
    bad = checks.check(fig2, _fig2_outputs(fig2, ach=0.99 * checks.fig2_epsilon_capacity(wl.EPSILON)))
    assert any("above converse" in b for b in bad)


def test_fig2_perturbed_awgn_fails(fig2):
    bad = checks.check(fig2, _fig2_outputs(fig2, awgn_shift=1e-6))
    assert any("closed form" in b for b in bad)


def test_fig2_headline_fails_below_ninety_percent(fig2):
    bad = checks.check(fig2, _fig2_outputs(fig2, ach=0.85 * checks.fig2_epsilon_capacity(wl.EPSILON)))
    assert any("0.9 C_eps" in b for b in bad)


def test_fig2_wrong_ci_end_fails(fig2):
    outputs = _fig2_outputs(fig2)
    i = [call[1] for call in fig2.calls].index("conv-simo")
    _, row = outputs[i].splitlines()
    cells = row.split(",")
    cells[5] = _fmt(float(cells[2]) + 0.01)  # ci_hi no longer the bound
    outputs[i] = _csv([",".join(cells)])
    assert any("wrong ends" in b for b in checks.check(fig2, outputs))


def test_fig3_sandwich_violation_fails():
    w = wl.build("fig3-mimo", 1)
    s, m = w.program_seed, wl.SAMPLES
    grid = [int(x) for x in wl.FIG3_GRID.split(",")]

    def rows(ach_top):
        out = [_row("ach-nocsi", n, ach_top if n == grid[-1] else 0.3, seed=s, samples=m) for n in grid]
        out += [_row("conv-iso", n, 0.8, lo=0.75, side="upper", seed=s, samples=m) for n in grid]
        out += [_row("normal", n, 0.6, side="estimate", seed=s, samples=m) for n in grid]
        return out

    assert checks.check(w, [_csv(rows(0.5))]) == []
    assert any("above converse" in b for b in checks.check(w, [_csv(rows(0.81))]))


def _outage_outputs(w, eps_cap_quantile=wl.EPSILON, outage_shift=0):
    from scipy import stats

    out = []
    for call in w.calls:
        trials = int(checks._arg(call, "--samples"))
        seed = w.program_seed
        if call[0] == "outage":
            rate = float(checks._arg(call, "--rate-bits")) * math.log(2.0)
            k = round(trials * checks.fig2_capacity_cdf(rate)) + outage_shift
            lo, hi = (float(x) for x in checks._cp_interval(k, trials, checks.CONFIDENCE_DELTA))
            out.append(_csv([_row("outage", 100, rate, lo, hi, "outage", seed, trials)]))
        elif "--k-db" in call:
            ch = wl.FIG2_CHANNEL
            k_lin = 10.0 ** (ch["k_db"] / 10.0)
            x = float(stats.ncx2.ppf(eps_cap_quantile, 2 * ch["r"], 2 * ch["r"] * k_lin))
            v = math.log1p(10.0 ** (ch["snr_db"] / 10.0) * x / (2.0 * (k_lin + 1.0)))
            out.append(_csv([_row("eps-capacity", 100, v, v - 0.002, v + 0.002, "estimate", seed, trials)]))
        else:
            v = {"iso": 1.2, "waterfill": 1.7}.get(checks._arg(call, "--cov") if "--cov" in call else "", 0.7)
            out.append(_csv([_row("eps-capacity", 100, v, v - 0.02, v + 0.02, "estimate", seed, trials)]))
    return out


def test_outage_mt_correct_output_passes():
    w = wl.build("outage-mt", 5)
    assert checks.check(w, _outage_outputs(w)) == []


def test_outage_mt_eps_capacity_outside_binomial_tolerance_fails():
    w = wl.build("outage-mt", 5)
    bad = checks.check(w, _outage_outputs(w, eps_cap_quantile=1.3 * wl.EPSILON))
    assert any("eps-capacity" in b and "outside" in b for b in bad)


def test_outage_mt_outage_count_outside_binomial_tolerance_fails():
    w = wl.build("outage-mt", 5)
    bad = checks.check(w, _outage_outputs(w, outage_shift=400))
    assert any("outages in" in b for b in bad)


def test_outage_mt_waterfill_below_isotropic_fails():
    w = wl.build("outage-mt", 5)
    outputs = _outage_outputs(w)
    outputs[-2], outputs[-1] = outputs[-1], outputs[-2]  # swap iso and waterfill values
    bad = checks.check(w, outputs)
    assert any("below isotropic" in b for b in bad)


def test_successes_recovered_from_clopper_pearson_interval():
    for k in (0, 3, 1000, 99_999):
        lo, hi = (float(x) for x in checks._cp_interval(k, 100_000, checks.CONFIDENCE_DELTA))
        assert checks.successes_from_interval(float(_fmt(lo)), float(_fmt(hi)), 100_000) == k


def test_same_seed_same_calls():
    for name in wl.WORKLOADS:
        assert wl.build(name, 11) == wl.build(name, 11)
        assert wl.build(name, 11).calls != wl.build(name, 12).calls


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [*tracer.PER_LAYER, "trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_union_length_counts_overlap_once():
    assert tracer._union_length([(1.0, 3.0), (2.0, 4.0), (5.0, 9.0)], 0.0, 6.0) == 4.0


def test_traced_csv_is_byte_identical_and_self_time_spans_threads(monkeypatch):
    import fbl.cli

    argv = ["eps-capacity", "--r", "2", "--snr-db", "0", "--samples", "100000", "--seed", "4"]
    monkeypatch.setenv("FBL_THREADS", "2")

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert fbl.cli.main(argv) == 0
        return buf.getvalue()

    plain = run()
    t = tracer.Tracer()
    t.install()
    try:
        traced = run()
    finally:
        t.uninstall()
    assert traced == plain
    assert fbl.cli.run_sweep.__module__ == "fbl.cli" and not hasattr(fbl.cli.run_sweep, "__wrapped__")
    summary = t.summary()
    chunks = math.ceil(100_000 / 4096)
    assert summary["channel.sample_channel"]["calls"] == chunks
    assert summary["mc.sample_values"]["samples"] == 100_000
    sv = summary["mc.sample_values"]
    assert 0.0 <= sv["self_s"] <= sv["s"]
    (sv_id,) = [sid for sid, _, name, _, _ in t.spans if name == "mc.sample_values"]
    assert all(parent == sv_id for _, parent, name, _, _ in t.spans if name == "channel.sample_channel")
