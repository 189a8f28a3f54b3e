"""Achievability bounds: beta-product tails, decoding statistic, rate bounds."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

import oracles
from fbl import achievability as ach
from fbl import channel as ch
from fbl import converse as cv
from fbl import mc
from fbl import outage as og
from fbl.config import db_to_linear
from fbl.errors import ConfigurationError, DomainError

FIG2_SPEC = ch.ChannelSpec(
    t=1, r=2, snr=db_to_linear(-1.55), fading=ch.Rician(k_factor=db_to_linear(20.0))
)


def _rng(i=0):
    return mc.rng(200, i)


class TestBetaProductLogTail:
    def test_probability_one_at_gamma_one(self):
        assert ach.beta_product_log_tail(50, 2, 3, 0.0) == 0.0

    def test_single_rank_single_receive(self):
        # product is a single Beta(3, 1); CDF at 0.5 is 0.125
        got = ach.beta_product_log_tail(4, 1, 1, math.log(0.5))
        assert got == pytest.approx(math.log(0.125), rel=1e-10)

    def test_single_rank_matches_beta_cdf(self):
        for n, r, g in ((30, 2, 0.3), (100, 3, 0.8), (500, 2, 0.99)):
            got = ach.beta_product_log_tail(n, 1, r, math.log(g))
            oracle = math.log(oracles.reg_inc_beta(g, n - r, r))
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_single_rank_deep_tail_against_multiprecision(self):
        import mpmath

        n, r = 200, 2
        log_g = -3.0
        with mpmath.workdps(50):
            oracle = float(
                mpmath.log(mpmath.betainc(n - r, r, 0, mpmath.e**log_g, regularized=True))
            )
        got = ach.beta_product_log_tail(n, 1, r, log_g)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_exact_tail_between_mc_and_markov(self):
        n, t_eff, r, g = 50, 2, 2, 0.4
        log_g = math.log(g)
        exact = ach.beta_product_log_tail(n, t_eff, r, log_g)
        markov = oracles.markov_log_tail(n, t_eff, r, log_g)
        assert exact <= markov + 1e-12
        rng = _rng(1)
        n_draws = 10_000_000
        prod = np.ones(n_draws)
        for j in range(1, r + 1):
            prod *= rng.beta(n - t_eff - j + 1, t_eff, n_draws)
        hits = int(np.count_nonzero(prod <= g))
        mc_lo = mc.cp_lower(hits, n_draws, 0.005)
        assert exact >= math.log(mc_lo) if mc_lo > 0 else True

    def test_markov_grid_dominance(self):
        for n in (20, 80, 300):
            for t_eff in (2, 3):
                for r in (1, 2, 3):
                    if n <= t_eff + r:
                        continue
                    for lg in (-0.05, -0.5, -2.0, -8.0):
                        assert (
                            ach.beta_product_log_tail(n, t_eff, r, lg)
                            <= oracles.markov_log_tail(n, t_eff, r, lg) + 1e-12
                        )

    # every (t_eff, r) in {1..4}^2 at the smallest n, a middle n and n = 2000
    _GRID = [
        (n, t_eff, r, lg)
        for t_eff in range(1, 5)
        for r in range(1, 5)
        for n in (t_eff + r + 1, 433, 2000)
        for lg in (-5.0, -0.5, -1e-3)
    ]

    def test_exact_tail_matches_multiprecision_referee(self):
        # within 1e-12 relative (absolute below 1) of an 80-digit matrix
        # exponential, and never below it by more than that
        failures = []
        for n, t_eff, r, lg in self._GRID:
            got = ach.beta_product_log_tail(n, t_eff, r, lg)
            ref = oracles.mp_beta_product_log_tail(n, t_eff, r, lg)
            tol = 1e-12 * max(1.0, abs(ref))
            if not (abs(got - ref) <= tol and got >= ref - tol):
                failures.append(f"(n, t, r, ln g) = ({n}, {t_eff}, {r}, {lg}): {got!r} vs {ref!r}")
        assert not failures, failures

    def test_exact_tail_below_chernoff_and_markov(self):
        for n, t_eff, r, lg in self._GRID:
            got = ach.beta_product_log_tail(n, t_eff, r, lg)
            assert got <= oracles.chernoff_log_tail(n, t_eff, r, lg) + 1e-12
            assert got <= oracles.markov_log_tail(n, t_eff, r, lg) + 1e-12

    def test_single_rank_matches_binomial_sum(self):
        # for t_eff = 1 the product is Beta(n - r, r), the law of the
        # binomial-tail expansion
        for n, t_eff, r, lg in self._GRID:
            if t_eff == 1:
                ref = oracles.log_beta_tail_int_b(lg, n - r, r)
                got = ach.beta_product_log_tail(n, 1, r, lg)
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ach.beta_product_log_tail(4, 2, 2, -0.5)  # n too small
        with pytest.raises(DomainError):
            ach.beta_product_log_tail(50, 1, 2, 0.5)  # gamma > 1
        with pytest.raises(DomainError):
            ach.beta_product_log_tail(50, 2, 2, math.nan)


class TestSin2Statistic:
    def test_zero_fading_single_mode_is_beta(self):
        # with no signal the single-mode ratio is Beta(n-1, 1)
        n = 30
        spec = ch.ChannelSpec(t=1, r=1, snr=1e-12, fading=ch.Rician(k_factor=1e12))
        sampler = oracles.plain_sin2_sampler(spec, ch.WaterFill(), n)
        draws = sampler(_rng(2), 100_000)
        ks = stats.kstest(draws, lambda v: stats.beta.cdf(v, n - 1, 1))
        assert ks.pvalue > 0.01

    def test_large_gain_drives_statistic_to_zero(self):
        spec = ch.ChannelSpec(t=1, r=2, snr=1e6, fading=ch.Rician(k_factor=1e12))
        sampler = oracles.plain_sin2_sampler(spec, ch.WaterFill(), 100)
        draws = sampler(_rng(3), 200)
        assert np.max(draws) < 1e-3

    def test_matches_qr_oracle_in_law(self, monkeypatch):
        # two-sample KS of the closed form against the statistic measured on
        # an explicit n x r received block; 24 cases at 1e-3 each. At -10 dB
        # n * gain runs from ~0.5 to ~50, so both the noise Gram and the
        # signal block shape the law.
        monkeypatch.setattr(mc, "CHUNK", 1024)
        draws = 10_000
        failures = []
        for case, (t, r) in enumerate(((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2))):
            spec = ch.ChannelSpec(t=t, r=r, snr=0.1, fading=ch.Rayleigh())
            cfg = mc.MCConfig(seed=400 + case, samples=draws)
            for n in (t + r + 1, 20, 100, 500):
                closed = ach.sin2_statistic_sampler(spec, n)
                gains = og.gain_sample(spec, ch.Isotropic(), cfg, (n,))
                qr = oracles.qr_sin2_sampler(spec, ch.Isotropic(), n)
                pvalue = stats.ks_2samp(
                    np.exp(mc.sample_values(closed, cfg, (n, 0), gains)), mc.sample_values(qr, cfg, (n, 1))
                ).pvalue
                if pvalue < 1e-3:
                    failures.append(f"(t, r, n) = ({t}, {r}, {n}): p = {pvalue:.1e}")
        assert not failures, failures

    def test_zero_signal_beta_product_law_every_rank(self):
        # with no signal the statistic is prod_j Beta(n - t - j + 1, t), the
        # law beta_product_log_tail bounds; three cases at 1e-3 each
        n = 12
        for t, r in ((2, 2), (2, 3), (3, 2)):
            spec = ch.ChannelSpec(t=t, r=r, snr=1e-12, fading=ch.Rayleigh())
            draws = oracles.plain_sin2_sampler(spec, ch.Isotropic(), n)(_rng(8), 50_000)
            rng = _rng(9)
            prod = np.ones(50_000)
            for j in range(1, r + 1):
                prod *= rng.beta(n - t - j + 1, t, 50_000)
            assert stats.ks_2samp(draws, prod).pvalue > 1e-3

    def test_scalar_wrapper_and_bounds(self):
        v = oracles.sample_sin2_statistic(FIG2_SPEC, ch.WaterFill(), 50, _rng(6))
        assert 0.0 <= v <= 1.0

    def test_exact_beta_law_single_antenna_zero_signal(self):
        # with 1 transmit dimension and no signal, the exact statistic is
        # the beta-product law used by the closed-form tail
        n, r = 40, 2
        spec = ch.ChannelSpec(t=1, r=r, snr=1e-12, fading=ch.Rayleigh())
        draws = oracles.plain_sin2_sampler(spec, ch.WaterFill(), n)(_rng(7), 100_000)
        ks = stats.kstest(draws, lambda v: stats.beta.cdf(v, n - r, r))
        assert ks.pvalue > 0.01

    def test_rejects_short_blocklength(self):
        with pytest.raises(DomainError):
            ach.sin2_statistic_sampler(FIG2_SPEC, 3)

    @pytest.mark.parametrize("d, wide", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4)])
    def test_log_statistic_matches_the_lapack_det_form(self, d, wide):
        # ln Lambda = -ln det(I + Y Y^H), Y = L^-1 X, against the LAPACK det
        # of the Gram of Z = [X | L] for the same X and L: gains near 0,
        # n * gain up to 1e4, and X whose second row is nearly a multiple of
        # the first. Lambda is compared, not its log: near Lambda = 1 the log
        # of the det form keeps only ~1e-12 of relative accuracy
        rng = _rng(30 + 4 * d + wide)
        size, idx = 200, np.arange(d)
        for n, n_gain, spread in (
            (1000, 0.0, None), (1000, 1e-3, None), (20, 20.0, None),
            (100, 1e4, None), (100, 100.0, 1e-6), (100, 1e4, 1e-8),
        ):
            x = (rng.standard_normal((size, d, wide)) + 1j * rng.standard_normal((size, d, wide))) * math.sqrt(0.5)
            x[:, idx, idx] += math.sqrt(n_gain)
            if spread is not None and d > 1:
                noise = rng.standard_normal((size, wide)) + 1j * rng.standard_normal((size, wide))
                x[:, 1, :] = (0.6 - 0.8j) * x[:, 0, :] + spread * noise
            diag = np.sqrt(rng.standard_gamma(n - wide - idx, size=(size, d)))
            k = d * (d - 1) // 2
            low = (rng.standard_normal((size, k)) + 1j * rng.standard_normal((size, k))) * math.sqrt(0.5)
            got = ach.log_wilks_lambda(x, diag, low)
            assert np.all(got <= 0.0)
            np.testing.assert_allclose(np.exp(got), oracles.wilks_lambda_det(x, diag, low), rtol=1e-13, atol=0.0)


class TestGammaN:
    def test_order_index_feasible_at_default_samples(self):
        k = mc.quantile_order_indices(100_000, 1 - 1e-3 + 1e-4, "upper", 0.01)
        assert k <= 100_000
        assert stats.binom.sf(k - 1, 100_000, 1 - 1e-3 + 1e-4) <= 0.01

    def test_tau_out_of_range(self):
        cfg = mc.MCConfig(seed=1, samples=5000)
        with pytest.raises(ConfigurationError):
            oracles.gamma_n_ach(FIG2_SPEC, ch.WaterFill(), 100, 1e-3, 2e-3, cfg)

    def test_seed_stability(self):
        vals = []
        for seed in (1, 2, 3):
            cfg = mc.MCConfig(seed=seed, samples=100_000)
            vals.append(oracles.gamma_n_ach(FIG2_SPEC, ch.WaterFill(), 300, 1e-3, 1e-4, cfg))
        # a 0.9991 quantile from 1e5 draws moves by a few 1e-3 across seeds
        assert max(vals) - min(vals) < 5e-3


class TestRateLowerBound:
    cfg = mc.MCConfig(seed=8, samples=100_000)

    def test_vacuous_bound_clamps_to_zero(self):
        spec = ch.ChannelSpec(t=1, r=1, snr=1e-9, fading=ch.Rayleigh())
        rate, _ = oracles.kappa_beta_rate(spec, ch.WaterFill(), 50, 0.5, 0.25, self.cfg)
        assert rate == 0.0

    def test_fig2_crossing_window(self):
        # the converged 90% crossing lies at n <= 500 (acceptance criterion 3).
        # At 1e5 samples the bound at n = 520 scatters around 0.900 bit
        # (sd 0.004 over seeds), so it runs on 1e6, where the conservative
        # quantile shaves less and n = 520 reads 0.906 +- 0.001 bit
        cfg = mc.MCConfig(seed=8, samples=1_000_000)
        r520, _ = oracles.kappa_beta_rate(FIG2_SPEC, ch.WaterFill(), 520, 1e-3, None, cfg)
        r100, _ = oracles.kappa_beta_rate(FIG2_SPEC, ch.WaterFill(), 100, 1e-3, None, cfg)
        assert r100 / math.log(2) < 0.9
        assert r520 / math.log(2) >= 0.9

    def test_never_exceeds_epsilon_capacity(self):
        _, (lo, hi) = og.epsilon_capacity(FIG2_SPEC, ch.WaterFill(), 1e-3, self.cfg)
        for n in (100, 400):
            rate, _ = oracles.kappa_beta_rate(FIG2_SPEC, ch.WaterFill(), n, 1e-3, None, self.cfg)
            assert rate <= hi + 3 * (hi - lo) + 1e-9

    def test_grid_search_dominates_each_tau(self):
        # the grid gives each tau an equal share of delta: it is the best of
        # the single-tau bounds taken at that share
        best, _ = oracles.kappa_beta_rate(FIG2_SPEC, ch.WaterFill(), 200, 1e-3, None, self.cfg)
        taus = ach.tau_grid(200, 1e-3)
        share = mc.MCConfig(seed=8, samples=100_000, confidence_delta=self.cfg.confidence_delta / len(taus))
        singles = [oracles.kappa_beta_rate(FIG2_SPEC, ch.WaterFill(), 200, 1e-3, tau, share)[0] for tau in taus]
        assert best == max(singles)

    def test_grid_skips_a_tau_whose_quantile_needs_more_samples(self):
        # at n = 21, eps = 0.05 the tau = 1/n quantile (target 0.9976) needs
        # more than 2,000 samples at a third of delta; the other taus still run
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rayleigh())
        taus = ach.tau_grid(21, 0.05)
        assert taus == [0.005, 0.025, 1.0 / 21]
        share = mc.MCConfig(seed=0, samples=2000, confidence_delta=0.01 / 3)
        with pytest.raises(ConfigurationError, match="too few samples"):
            oracles.kappa_beta_rate(spec, ch.WaterFill(), 21, 0.05, 1.0 / 21, share)
        best, _ = oracles.kappa_beta_rate(spec, ch.WaterFill(), 21, 0.05, None, mc.MCConfig(seed=0, samples=2000))
        feasible = [oracles.kappa_beta_rate(spec, ch.WaterFill(), 21, 0.05, tau, share)[0] for tau in taus[:2]]
        assert best == max(feasible)

    def test_simo_waterfill_isotropic_consistency(self):
        # with one transmit antenna the two signaling paths coincide
        a, _ = oracles.kappa_beta_rate(FIG2_SPEC, ch.WaterFill(), 200, 1e-3, 1e-4, self.cfg)
        b, _ = oracles.kappa_beta_rate(FIG2_SPEC, ch.Isotropic(), 200, 1e-3, 1e-4, self.cfg)
        assert a == pytest.approx(b, rel=1e-9)

    def test_mimo_path_runs(self):
        spec = ch.ChannelSpec(t=2, r=3, snr=db_to_linear(2.12), fading=ch.Rayleigh())
        rate, _ = oracles.kappa_beta_rate(spec, ch.Isotropic(), 200, 1e-3, None, self.cfg)
        assert 0.0 < rate < math.log(1 + spec.snr * 6)


@pytest.mark.parametrize("epsilon", [0.0, -0.1])
def test_epsilon_checked_before_the_tau_grid(epsilon):
    # the default tau grid is empty at such an epsilon: both bounds report
    # the epsilon, as the converses and the normal approximation do
    cfg = mc.MCConfig(seed=1, samples=1000)
    with pytest.raises(DomainError, match=r"epsilon must be in \(0, 1\)"):
        oracles.kappa_beta_rate(FIG2_SPEC, ch.WaterFill(), 100, epsilon, None, cfg)
    with pytest.raises(DomainError, match=r"epsilon must be in \(0, 1\)"):
        ach.csir_kappa_beta_simo(FIG2_SPEC, 100, epsilon, None)


class TestCsirKappaBetaSimo:
    cfg = mc.MCConfig(seed=9, samples=100_000)

    def test_requires_single_transmit_antenna(self):
        # the check is converse.SimoTailTable's, as for conv-simo
        spec = ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rayleigh())
        with pytest.raises(DomainError):
            ach.csir_kappa_beta_simo(spec, 100, 1e-3, None)

    def test_vanishing_snr_gives_zero(self):
        spec = ch.ChannelSpec(t=1, r=2, snr=1e-12, fading=ch.Rayleigh())
        rate, _ = ach.csir_kappa_beta_simo(spec, 100, 1e-3, None)
        assert rate == pytest.approx(0.0, abs=1e-3)

    def test_beats_no_side_information_curve(self):
        for n in (100, 300, 600):
            csir, _ = ach.csir_kappa_beta_simo(FIG2_SPEC, n, 1e-3, None)
            plain, _ = oracles.kappa_beta_rate(FIG2_SPEC, ch.WaterFill(), n, 1e-3, None, self.cfg)
            assert csir >= plain - 1e-9

    @pytest.mark.parametrize("n, tau", [(100, 1e-4), (500, 5e-4)])
    def test_ci_is_a_bracket_about_the_reference(self, n, tau):
        # ci runs from the reported upper-end quadrature to the lower-end
        # one, and holds the fine-grid reference value of the bound at the
        # tau given. At n = 500 the mean of beta is about e^-340, far below
        # the mass outside the grid: only its bound e^-n*gamma on q_l keeps
        # that mass's term negligible
        rate, (lo, hi) = ach.csir_kappa_beta_simo(FIG2_SPEC, n, 1e-3, tau)
        assert lo == rate
        ref = oracles.FineSimoMeans(FIG2_SPEC, n, 1e-3).kappa_beta(n, 1e-3, tau)
        assert rate <= ref <= hi
        assert hi - rate < 0.003 * math.log(2)
        table = cv.SimoTailTable(FIG2_SPEC, n, 1e-3)
        gamma = table.threshold(1e-3 - tau, "below", "upper")
        log_beta = table.log_mean_q_l(gamma, "upper")
        if n == 500:
            assert table.log_tail > log_beta + 200.0
            assert table.log_tail - n * gamma < log_beta - 5.0

    def test_other_end_is_taken_at_the_winning_tau(self):
        taus = ach.tau_grid(300, 1e-3)
        rates = {t: ach.csir_kappa_beta_simo(FIG2_SPEC, 300, 1e-3, t) for t in taus}
        rate, ci = ach.csir_kappa_beta_simo(FIG2_SPEC, 300, 1e-3, None)
        best = max(taus, key=lambda t: rates[t][0])
        assert rate == rates[best][0] and ci == rates[best][1]

    @staticmethod
    def _density_ratio_rows(u, a):
        """Per-row log density ratio between the signal and auxiliary laws.

        For one transmit antenna with the codeword on the power sphere the
        per-row ratio depends on the receive vector only through the scalar
        projection u onto the channel direction:
            ln(1+a) + 2*sqrt(a)*Re(u) - a - (a/(1+a))*|u|^2.
        """
        return (
            math.log1p(a)
            + 2.0 * math.sqrt(a) * u.real
            - a
            - (a / (1.0 + a)) * np.abs(u) ** 2
        )

    def test_scalar_channel_neyman_pearson_oracle(self):
        # fixed gain, one receive antenna: the semi-analytic type-II error of
        # the threshold test must match a direct Monte Carlo Neyman-Pearson
        # evaluation of the scalar Gaussian-vs-Gaussian testing problem
        n, a = 20, 1.3
        gamma = 0.12  # places the type-II error near 1e-3, reachable by MC
        table = cv.SimoTailTable(FIG2_SPEC, n, 1e-3)
        table.grid = np.array([a])  # the table's tails at the chosen gain
        beta_semi = math.exp(table.log_q_l(gamma)[0])
        rng = _rng(10)
        draws = 2_000_000
        # under the auxiliary law the projection is CN(0, 1+a) per row
        u = (
            (rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n)))
            * math.sqrt(0.5)
            * math.sqrt(1 + a)
        )
        dens = np.sum(self._density_ratio_rows(u, a), axis=1)
        hits = int(np.count_nonzero(dens >= n * gamma))
        lo = mc.cp_lower(hits, draws, 0.005)
        hi = mc.cp_upper(hits, draws, 0.005)
        assert lo <= beta_semi <= hi

    def test_scalar_channel_type_one_oracle(self):
        # under the signal law the projection is sqrt(a) + CN(0,1) per row;
        # the semi-analytic success probability must match direct Monte Carlo
        n, a = 20, 1.3
        gamma = math.log1p(a) - 0.1
        table = cv.SimoTailTable(FIG2_SPEC, n, 1e-3)
        table.grid = np.array([a])  # the table's tails at the chosen gain
        q_s_semi = float(table.q_s(gamma)[0])
        rng = _rng(12)
        draws = 2_000_000
        u = math.sqrt(a) + (
            rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))
        ) * math.sqrt(0.5)
        dens = np.sum(self._density_ratio_rows(u, a), axis=1)
        hits = int(np.count_nonzero(dens <= n * gamma))
        lo = mc.cp_lower(hits, draws, 0.005)
        hi = mc.cp_upper(hits, draws, 0.005)
        assert lo <= q_s_semi <= hi

    def test_information_density_dimension_reduction(self):
        # full per-row density ratio over r antennas equals the scalar
        # reduction through the projection onto the channel direction
        rng = _rng(11)
        n, r, rho = 8, 3, 0.9
        for _ in range(100):
            h = (rng.standard_normal(r) + 1j * rng.standard_normal(r)) * math.sqrt(0.5)
            g = float(np.sum(np.abs(h) ** 2))
            a = rho * g
            w = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) * math.sqrt(0.5)
            y = math.sqrt(rho) * np.outer(np.ones(n), h) + w
            cov_q = np.eye(r) + rho * np.outer(h, h.conj())
            inv_q = np.linalg.inv(cov_q)
            logdet = math.log(np.linalg.det(cov_q).real)
            full = 0.0
            for i in range(n):
                yi = y[i]
                lp = -float(np.sum(np.abs(yi - math.sqrt(rho) * h) ** 2))
                lq = -float((yi.conj() @ inv_q @ yi).real)
                full += lp - lq + logdet
            u = y @ h.conj() / math.sqrt(g)
            scalar = float(np.sum(self._density_ratio_rows(u, a)))
            assert full == pytest.approx(scalar, abs=1e-9)


def _log_wilks_lambda_mpmath(x, diag, low):
    """ln(prod diag^2 / det(L L^H + X X^H)) of one draw, by mpmath at 50 digits."""
    d = x.shape[0]
    with mpmath.workdps(50):
        lm = mpmath.zeros(d, d)
        for i in range(d):
            lm[i, i] = mpmath.mpf(float(diag[i]))
            for j in range(i):
                lm[i, j] = mpmath.mpc(complex(low[i * (i - 1) // 2 + j]))
        xm = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in x])
        log_det = mpmath.re(mpmath.log(mpmath.det(lm * lm.H + xm * xm.H)))
        return float(2 * mpmath.fsum(mpmath.log(lm[i, i]) for i in range(d)) - log_det)


class TestRealArrayBits:
    @pytest.mark.parametrize("d, wide", [(d, w) for d in range(1, 5) for w in range(d, 7)])
    def test_log_wilks_lambda_equals_the_divided_einsum_form(self, d, wide):
        # rows multiplied by the reciprocal of the diagonal, as numpy's
        # complex / real does, and the real-array log-det: the same bits at
        # d <= 2; at d >= 3 the log-det's trailing update takes four real
        # products, within 1e-13 relative of the complex form and of mpmath.
        # The first three draws give Y = L^-1 X small off-diagonal Gram
        # entries, so the trailing update barely reaches the log-det; the
        # last, at n = t + r + 1 with a strong rank-one component in X, gives
        # it large ones, and an error of 1e-12 relative in the update shows
        rng = _rng(60 + 8 * d + wide)
        size, idx = 500, np.arange(d)
        for n, n_gain, common in ((1000, 0.0, 0.0), (20, 20.0, 0.0), (100, 1e4, 0.0), (d + wide + 1, 0.0, 3.0)):
            x = ch.complex_normal(rng, (size, d, wide))
            x[:, idx, idx] += math.sqrt(n_gain)
            if common:
                x += common * ch.complex_normal(rng, (size, d, 1)) * ch.complex_normal(rng, (size, 1, wide))
            diag = np.sqrt(rng.standard_gamma(n - wide - idx, size=(size, d)))
            low = ch.complex_normal(rng, (size, d * (d - 1) // 2))
            got, want = ach.log_wilks_lambda(x, diag, low), oracles.divided_log_wilks_lambda(x, diag, low)
            if d <= 2:
                np.testing.assert_array_equal(got, want)
                continue
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            for i in range(3):
                assert got[i] == pytest.approx(_log_wilks_lambda_mpmath(x[i], diag[i], low[i]), rel=1e-13, abs=0.0)
