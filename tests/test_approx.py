"""Normal-approximation rates and the nonfading reference curve."""

import math

import mpmath
import numpy as np
import pytest

import oracles
from fbl import approx as ap
from fbl import channel as ch
from fbl import cli
from fbl import converse as cv
from fbl import mc
from fbl import outage as og
from fbl import specfun as sf
from fbl.config import db_to_linear
from fbl.errors import DomainError

FIG2_SPEC = ch.ChannelSpec(
    t=1, r=2, snr=db_to_linear(-1.55), fading=ch.Rician(k_factor=db_to_linear(20.0))
)
FIG5_SPEC = ch.ChannelSpec(t=1, r=2, snr=db_to_linear(2.74), fading=ch.Rayleigh())
NAKAGAMI_SPEC = ch.ChannelSpec(t=1, r=3, snr=db_to_linear(2.74), fading=ch.Nakagami(m_shape=0.5))


class TestNormalApprox:
    cfg = mc.MCConfig(seed=11, samples=100_000)

    def test_degenerate_fading_scalar_solve(self):
        # near-deterministic channel: the averaged solve must reduce to the
        # single-atom closed form R = C - sqrt(V/n) * Qinv(eps) + ln(n)/(2n),
        # which is the nonfading reference curve
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rician(k_factor=1e12))
        n, eps = 500, 1e-3
        model = ap.NormalApprox(spec, ch.Isotropic(), eps, self.cfg)
        c = math.log(2.0)
        v = 1.0 - 1.0 / 4.0  # dispersion of a unit-SNR deterministic mode
        want = c - math.sqrt(v / n) * sf.gaussian_q_inv(eps) + math.log(n) / (2 * n)
        got = model.rate(n)
        assert got == pytest.approx(want, abs=1e-4)
        assert got == pytest.approx(ap.awgn_reference_rate(1.0, n, eps), abs=1e-4)

    def test_large_n_reaches_epsilon_capacity(self):
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), 1e-3, self.cfg)
        _, (lo, hi) = og.epsilon_capacity(FIG2_SPEC, ch.WaterFill(), 1e-3, self.cfg)
        r = model.rate(10**9)
        width = hi - lo
        assert lo - 3 * width <= r <= hi + 3 * width

    def test_monotone_in_n_and_epsilon(self):
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), 1e-3, self.cfg)
        rates_n = [model.rate(n) for n in (50, 100, 400, 1600)]
        assert rates_n == sorted(rates_n)
        rates_e = [ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), e, self.cfg).rate(300) for e in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert rates_e == sorted(rates_e)

    def test_rejects_unknown_covariance(self):
        with pytest.raises(DomainError):
            ap.NormalApprox(FIG2_SPEC, object(), 1e-3, self.cfg)

    def test_domain_checks(self):
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), 1e-3, self.cfg)
        with pytest.raises(DomainError):
            model.rate(0)
        with pytest.raises(DomainError):
            ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), 1.0, self.cfg)

    def test_epsilon_is_checked_before_any_draw(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ch, "sample_channel", lambda *args: calls.append(args))
        spec = ch.ChannelSpec(t=2, r=3, snr=1.0, fading=ch.Rayleigh())
        with pytest.raises(DomainError):
            ap.NormalApprox(spec, ch.Isotropic(), 0.0, self.cfg)
        assert calls == []

    def test_deep_epsilon_root_lies_inside_the_bracket(self):
        # at eps = 1e-30 the root lies far below zero rate; the pinned value
        # is the quadrature's, 2e-6 nats below the fine-grid reference
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), 1e-30, mc.MCConfig(seed=3, samples=20_000))
        got = model.rate(10)
        assert got == pytest.approx(-2.3082934241077857, abs=1e-12)
        assert abs(got - oracles.fine_normal_rate(FIG2_SPEC, 10, 1e-30)) / math.log(2) < 1e-4

    def test_tracks_converse_at_large_blocklength(self):
        # the converse exceeds the approximation, which carries the ln(n)/(2n)
        # term, by roughly ln(1/eps)/n, about 0.01 bit at n = 1000 here
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), 1e-3, self.cfg)
        rate, _ = cv.converse_simo(FIG2_SPEC, 1000, 1e-3)
        gap_bits = (rate - model.rate(1000)) / math.log(2)
        assert 0.0 < gap_bits < 0.03


class TestGainLawQuadrature:
    """At t = 1 the expectation is a quadrature over the gain law's cells."""

    cfg = mc.MCConfig(seed=11, samples=1_000)

    @pytest.mark.parametrize(
        "spec, n, eps",
        [(FIG2_SPEC, 10, 1e-3), (FIG2_SPEC, 100, 1e-3), (FIG2_SPEC, 500, 1e-3), (FIG2_SPEC, 1000, 1e-3),
         (FIG5_SPEC, 100, 0.1), (NAKAGAMI_SPEC, 100, 0.05)],
        ids=["fig2-10", "fig2-100", "fig2-500", "fig2-1000", "fig5-100", "nakagami-100"],
    )
    def test_within_a_tenth_of_a_millibit_of_the_fine_grid(self, spec, n, eps):
        got = ap.NormalApprox(spec, ch.WaterFill(), eps, self.cfg).rate(n)
        assert abs(got - oracles.fine_normal_rate(spec, n, eps)) / math.log(2) < 1e-4

    @pytest.mark.parametrize("spec, eps", [(FIG2_SPEC, 1e-3), (FIG5_SPEC, 0.1)], ids=["fig2", "fig5"])
    def test_between_the_roots_of_the_cell_bound_ends(self, spec, eps):
        # the mean of each cell's lower bound (0 outside the grid) and of its
        # upper bound (plus the bound on the outside mass) enclose the exact
        # average error, so their roots enclose the exact R0
        n = 200
        gains, prob, _, log_tail = cv.gain_cells(spec, eps, cv.SimoTailTable.GRID, cv.SimoTailTable.TAIL_NATS)
        c, v = og.capacity_dispersion(gains[:, None])

        def mean(r, end):
            q = sf.gaussian_q((c - r) / np.sqrt(v / n))
            lower, upper = cv._cell_bounds(q)
            return prob @ lower if end == "lower" else prob @ upper + math.exp(log_tail)

        lo, hi = (mc.root_find_monotone(lambda r: mean(r, end), eps, (-1.0, 3.0), "at_least")
                  for end in ("upper", "lower"))
        r0 = ap.NormalApprox(spec, ch.WaterFill(), eps, self.cfg).rate(n) - math.log(n) / (2 * n)
        assert lo <= r0 <= hi
        assert (hi - lo) / math.log(2) < 0.02

    def test_draws_nothing(self, monkeypatch):
        # one rate for either seed, sample count and covariance policy, and no channel draw
        calls = []
        monkeypatch.setattr(ch, "sample_channel", lambda *args: calls.append(args))
        rates = {
            ap.NormalApprox(FIG2_SPEC, cov, 1e-3, mc.MCConfig(seed=seed, samples=samples)).rate(100)
            for seed, samples in ((7, 10_000), (8, 20_000))
            for cov in (ch.WaterFill(), ch.Isotropic())
        }
        assert len(rates) == 1 and calls == []

    def test_vanishing_snr_gives_a_finite_rate(self):
        # no 1e-6/n floor on the gains: at -80 dB and n = 100 it would lie at
        # half the mean gain
        spec = ch.ChannelSpec(t=1, r=2, snr=db_to_linear(-80.0), fading=ch.Rayleigh())
        got = ap.NormalApprox(spec, ch.WaterFill(), 1e-3, self.cfg).rate(100)
        assert math.isfinite(got)
        assert abs(got - oracles.fine_normal_rate(spec, 100, 1e-3)) / math.log(2) < 1e-4


class TestMonteCarloPath:
    def test_fig3_rows_pinned(self, capsys):
        # t >= 2 keeps the sample mean over one channel sample per grid; the
        # bounds beside it pin the decoding statistic and the conv-iso tilt
        assert cli.main(["figure", "fig3", "--seed", "7", "--samples", "20000", "--n-grid", "20,40"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "ach-nocsi,20,0,0,0,0,lower,7,20000",
            "ach-nocsi,40,0.105191741874,0.151759604344,0.105191741874,0.105191741874,lower,7,20000",
            "conv-iso,20,0.931395865195,1.34372019582,0.917799899389,0.931395865195,upper,7,20000",
            "conv-iso,40,0.875674350241,1.26333104253,0.860269816061,0.875674350241,upper,7,20000",
            "normal,20,0.591480485581,0.853325963331,0.591480485581,0.591480485581,estimate,7,20000",
            "normal,40,0.660001350819,0.952180675807,0.660001350819,0.660001350819,estimate,7,20000",
        ]


class TestOutageCdf:
    """The one form of the average gives the bits of the masked form, where
    every V > 0 and where every V = 0."""

    cfg = mc.MCConfig(seed=11, samples=20_000)

    @pytest.mark.parametrize(
        "spec",
        [FIG2_SPEC, ch.ChannelSpec(t=2, r=3, snr=db_to_linear(2.12), fading=ch.Rayleigh()),
         ch.ChannelSpec(t=2, r=2, snr=db_to_linear(2.0), fading=ch.Nakagami(m_shape=0.7))],
        ids=["fig2", "fig3", "nakagami-2x2"],
    )
    def test_equals_the_masked_form(self, spec):
        model = ap.NormalApprox(spec, ch.Isotropic(), 1e-3, self.cfg)
        assert np.all(model.v > 0.0)
        for n in (1, 20, 500, 10**9):
            for rate in np.quantile(model.c, [0.0, 0.001, 0.5, 1.0]):
                assert model.outage_cdf(rate, n) == oracles.masked_outage_cdf(model, rate, n)

    @pytest.mark.parametrize("t", [1, 2])
    def test_masked_branch_at_minus_200_db(self, t):
        # every V is exactly 0: the nodes count 1, 1/2 or 0, the root R0
        # lies at the least capacity, and the rate R0 + ln(n) / (2n) is
        # ln(n) / (2n) to within the search's tolerance
        spec = ch.ChannelSpec(t=t, r=3, snr=db_to_linear(-200.0), fading=ch.Rayleigh())
        model = ap.NormalApprox(spec, ch.Isotropic(), 1e-3, self.cfg)
        assert np.all(model.v == 0.0)
        for rate in (0.0, *np.quantile(model.c, [0.0, 0.5, 1.0])):
            assert model.outage_cdf(rate, 40) == oracles.masked_outage_cdf(model, rate, 40)
        assert model.rate(40) == 0.04611099317643777
        assert model.rate(500) == 0.006214608099268207


class TestAwgnReference:
    def test_large_n_limit(self):
        assert ap.awgn_reference_rate(3.0, 10**12, 1e-3) == pytest.approx(math.log(4.0), abs=1e-4)

    def test_closed_form_against_high_precision_quantile(self):
        rho, n, eps = 1.0, 1000, 1e-3
        qinv = float(
            mpmath.findroot(lambda x: 0.5 * mpmath.erfc(x / mpmath.sqrt(2)) - eps, mpmath.mpf(3))
        )
        want = math.log(2.0) - math.sqrt(0.75 / n) * qinv + math.log(n) / (2 * n)
        got = ap.awgn_reference_rate(rho, n, eps)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.6120, abs=5e-4)

    def test_ninety_percent_crossing_near_1420(self):
        rho = 1.0  # one bit of capacity
        target = 0.9 * math.log(2.0)
        n = 2
        while ap.awgn_reference_rate(rho, n, 1e-3) < target:
            n += 1
        assert abs(n - 1420) <= 0.05 * 1420

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            ap.awgn_reference_rate(0.0, 100, 1e-3)
        with pytest.raises(DomainError):
            ap.awgn_reference_rate(1.0, 0, 1e-3)
