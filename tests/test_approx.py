"""Normal-approximation rates and the nonfading reference curve."""

import math

import mpmath
import pytest

from fbl import approx as ap
from fbl import channel as ch
from fbl import converse as cv
from fbl import mc
from fbl import outage as og
from fbl import specfun as sf
from fbl.config import db_to_linear
from fbl.errors import DomainError

FIG2_SPEC = ch.ChannelSpec(
    t=1, r=2, snr=db_to_linear(-1.55), fading=ch.Rician(k_factor=db_to_linear(20.0))
)


class TestNormalApprox:
    cfg = mc.MCConfig(seed=11, samples=100_000)

    def test_degenerate_fading_scalar_solve(self):
        # near-deterministic channel: the averaged solve must reduce to the
        # single-atom closed form R = C - sqrt(V/n) * Qinv(eps) + ln(n)/(2n),
        # which is the nonfading reference curve
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rician(k_factor=1e12))
        model = ap.NormalApprox(spec, ch.Isotropic(), self.cfg)
        n, eps = 500, 1e-3
        c = math.log(2.0)
        v = 1.0 - 1.0 / 4.0  # dispersion of a unit-SNR deterministic mode
        want = c - math.sqrt(v / n) * sf.gaussian_q_inv(eps) + math.log(n) / (2 * n)
        got = model.rate(n, eps)
        assert got == pytest.approx(want, abs=1e-4)
        assert got == pytest.approx(ap.awgn_reference_rate(1.0, n, eps), abs=1e-4)

    def test_large_n_reaches_epsilon_capacity(self):
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), self.cfg)
        _, (lo, hi) = og.epsilon_capacity(FIG2_SPEC, ch.WaterFill(), 1e-3, self.cfg)
        r = model.rate(10**9, 1e-3)
        width = hi - lo
        assert lo - 3 * width <= r <= hi + 3 * width

    def test_monotone_in_n_and_epsilon(self):
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), self.cfg)
        rates_n = [model.rate(n, 1e-3) for n in (50, 100, 400, 1600)]
        assert rates_n == sorted(rates_n)
        rates_e = [model.rate(300, e) for e in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert rates_e == sorted(rates_e)

    def test_rejects_unknown_covariance(self):
        with pytest.raises(DomainError):
            ap.NormalApprox(FIG2_SPEC, object(), self.cfg)

    def test_domain_checks(self):
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), self.cfg)
        with pytest.raises(DomainError):
            model.rate(0, 1e-3)
        with pytest.raises(DomainError):
            model.rate(100, 1.0)

    def test_deep_epsilon_root_lies_inside_the_bracket(self):
        # at eps = 1e-30 the root lies below min C - 10 sigma, where the average
        # normal error is still 3e-29, so a bracket ending there returns its end
        # (-2.2230); the reference is the root on the wider bracket
        # +-(max C + 10 sigma)
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), mc.MCConfig(seed=3, samples=20_000))
        assert model.rate(10, 1e-30) == pytest.approx(-2.3081421417948054, abs=1e-12)

    def test_tracks_converse_at_large_blocklength(self):
        # the converse exceeds the approximation, which carries the ln(n)/(2n)
        # term, by roughly ln(1/eps)/n, about 0.01 bit at n = 1000 here
        model = ap.NormalApprox(FIG2_SPEC, ch.WaterFill(), self.cfg)
        rate, _ = cv.converse_simo(FIG2_SPEC, 1000, 1e-3)
        gap_bits = (rate - model.rate(1000, 1e-3)) / math.log(2)
        assert 0.0 < gap_bits < 0.03


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
