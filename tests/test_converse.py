"""Converse bounds: conditional tail laws, rate upper bounds, asymptotic constants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from fbl import achievability as ach
from fbl import channel as ch
from fbl import converse as cv
from fbl import mc
from fbl import outage as og
from fbl.config import db_to_linear
from fbl import specfun as sf
from fbl.errors import ConfigurationError, ConvergenceError, DomainError

FIG2_SPEC = ch.ChannelSpec(
    t=1, r=2, snr=db_to_linear(-1.55), fading=ch.Rician(k_factor=db_to_linear(20.0))
)
FIG3_SPEC = ch.ChannelSpec(t=2, r=3, snr=db_to_linear(2.12), fading=ch.Rayleigh())


def _rng(i=0):
    return mc.rng(300, i)


def _direct_statistics(n, a, rng, size):
    """S/n and L/n from the raw complex-Gaussian double sums (oracle route)."""
    z = (rng.standard_normal((size, n)) + 1j * rng.standard_normal((size, n))) * math.sqrt(0.5)
    head = math.log1p(a) + 1.0
    a_s = np.sum(np.abs(math.sqrt(a) * z - 1.0) ** 2, axis=1)
    a_l = np.sum(np.abs(math.sqrt(a) * z - math.sqrt(1.0 + a)) ** 2, axis=1)
    s = head - a_s / ((1.0 + a) * n)
    l = head - a_l / n
    return s, l


class TestSimoConditionalTails:
    def test_zero_gain_degenerate(self):
        for n in (1, 17):
            for gamma, want_s, want_l in ((-1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 0.0)):
                p = oracles.ConditionalTailParams(n=n, g=0.0, rho=2.0)
                assert oracles.simo_conditional_tails(p, gamma) == (want_s, want_l)

    def test_threshold_at_zero_gives_one(self):
        a = 0.7
        p = oracles.ConditionalTailParams(n=20, g=1.0, rho=a)
        gamma = math.log1p(a) + 1.0
        p_s, _ = oracles.simo_conditional_tails(p, gamma)
        assert p_s == 1.0

    def test_negative_gain_rejected(self):
        with pytest.raises(DomainError):
            oracles.simo_conditional_tails(oracles.ConditionalTailParams(n=5, g=-0.1, rho=1.0), 0.0)

    def test_direct_sum_monte_carlo_oracle(self):
        # the chi-square reduction is not printed anywhere: check both closed
        # forms against raw Gaussian double sums with exact binomial intervals
        n, a, gamma = 50, 1.0, 0.5
        p_s, p_l = oracles.simo_conditional_tails(oracles.ConditionalTailParams(n=n, g=1.0, rho=a), gamma)
        rng = _rng(1)
        draws, batch = 2_000_000, 100_000
        s_hits = l_hits = 0
        for _ in range(draws // batch):
            s, l = _direct_statistics(n, a, rng, batch)
            s_hits += int(np.sum(s <= gamma))
            l_hits += int(np.sum(l >= gamma))
        assert mc.cp_lower(s_hits, draws, 1e-4) <= p_s <= mc.cp_upper(s_hits, draws, 1e-4)
        assert mc.cp_lower(l_hits, draws, 1e-4) <= p_l <= mc.cp_upper(l_hits, draws, 1e-4)
        # the auxiliary tail is far below Monte Carlo resolution here: make
        # sure the interval check was not vacuously wide on the data side
        assert p_s > 0.01

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_chi2_reduction_matches_direct_sums_ks(self, n, a):
        import fbl.specfun as sf

        size = 20_000
        rng_dir = _rng(2 + n)
        rng_imp = _rng(1000 + n)
        s_dir, l_dir = _direct_statistics(n, a, rng_dir, size)
        head = math.log1p(a) + 1.0
        s_imp = head - (a / (2.0 * (1.0 + a))) * sf.sample_noncentral_chi2(
            2 * n, np.full(size, 2.0 * n / a), rng_imp
        ) / n
        l_imp = head - (a / 2.0) * sf.sample_noncentral_chi2(
            2 * n, np.full(size, 2.0 * n * (1.0 + a) / a), rng_imp
        ) / n
        assert stats.ks_2samp(s_dir, s_imp).pvalue > 0.01
        assert stats.ks_2samp(l_dir, l_imp).pvalue > 0.01


FIG5_SPEC = ch.ChannelSpec(t=1, r=2, snr=db_to_linear(2.74), fading=ch.Rayleigh())


def _table_at(n, gains):
    """A tail table whose grid is `gains`: its per-grid-point tails at chosen gains."""
    table = cv.SimoTailTable(FIG2_SPEC, n, 1e-3)
    table.grid = np.asarray(gains, dtype=float)
    return table


class TestSimoTailTable:
    def test_matches_pointwise_evaluation(self):
        n = 40
        rng = _rng(3)
        a = 0.8 * rng.chisquare(4, size=50) / 4.0
        table = _table_at(n, a)
        for gamma in (0.1, 0.5, 1.0):
            qs = table.q_s(gamma)
            ql = table.log_q_l(gamma)
            for i in range(a.size):
                p = oracles.ConditionalTailParams(n=n, g=float(a[i]), rho=1.0)
                p_s, p_l = oracles.simo_conditional_tails(p, gamma)
                assert qs[i] == pytest.approx(p_s, abs=2e-4)
                if p_l > 0 and math.log(p_l) > -400:
                    assert ql[i] == pytest.approx(math.log(p_l), abs=2e-3)

    def test_q_s_is_not_monotone_in_the_gain(self):
        # at n = 11 and gamma = -0.75, q_s rises with the gain here and falls
        # further up: the quadrature cannot assume that q_s is monotone
        q = _table_at(11, [0.5365, 0.5369, 2.0]).q_s(-0.75)
        assert q[0] == pytest.approx(1.86602e-5, rel=1e-4)
        assert q[1] == pytest.approx(1.86664e-5, rel=1e-4)
        assert q[0] < q[1] and q[2] < q[1]

    @pytest.mark.parametrize("spec", [FIG2_SPEC, FIG5_SPEC], ids=["fig2", "fig5"])
    def test_cells_hold_the_gain_law_between_far_quantiles(self, spec):
        eps = 1e-3
        table = cv.SimoTailTable(spec, 100, eps)
        assert table.grid.size == cv.SimoTailTable.GRID
        assert np.all(np.diff(table.grid) > 0.0) and np.all(table.prob >= 0.0)
        # the cells and the bound on the mass outside them cover the law
        total = float(np.sum(table.prob))
        assert total <= 1.0 + 1e-12
        assert total + math.exp(table.log_tail) >= 1.0
        assert math.exp(table.log_tail) <= 2.0 * eps * math.exp(-cv.SimoTailTable.TAIL_NATS) * (1.0 + 1e-9)
        # the grid ends sit at far quantiles, within a factor 1,000 of that
        # bound, not in the bulk
        scale, dof, nc = ch.gain_law(spec)
        cdf, sf_ = sf.noncentral_chi2_cdf_sf(np.array([table.grid[0], table.grid[-1]]) * scale / spec.snr, dof, nc)
        bound = eps * math.exp(-cv.SimoTailTable.TAIL_NATS)
        assert 1e-3 * bound < cdf[0] <= bound and 1e-3 * bound < sf_[1] <= bound

    @pytest.mark.parametrize("n", [11, 101, 501])
    def test_change_of_measure_bounds_hold_at_every_gain(self, n):
        # P[S_n <= n gamma | a] <= e^(n gamma) and P[L_n >= n gamma | a] <=
        # e^(-n gamma): the values the mass outside the grid is taken at
        table = cv.SimoTailTable(FIG5_SPEC, n, 0.1)
        for gamma in (-0.75, -0.1, 0.0, 0.3, 0.6, 1.0):
            assert np.all(table.q_s(gamma) <= math.exp(n * gamma) * (1.0 + 1e-9))
            assert np.all(table.log_q_l(gamma) <= -n * gamma + 1e-9)

    def test_grid_stops_at_the_degenerate_gain_floor(self):
        # a Rayleigh single-antenna gain has mass ~x near 0: its far lower
        # quantile lies below the gain 1e-6 / n, where the grid stops
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rayleigh())
        table = cv.SimoTailTable(spec, 1000, 1e-6)
        assert table.grid[0] == pytest.approx(1e-9, rel=1e-12)
        assert np.isfinite(table.log_tail) and math.exp(table.log_tail) > 1e-9

    @pytest.mark.parametrize("k_db", [40.0, 60.0, 120.0])
    def test_concentrated_gain_law_fills_the_grid(self, k_db):
        # the grid spans the law's Chernoff ends, not an octave above the
        # lower one: on a 1x1 Rician channel at 0 dB nearly every cell holds mass
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rician(k_factor=db_to_linear(k_db)))
        table = cv.SimoTailTable(spec, 501, 1e-3)
        assert np.count_nonzero(table.prob > 1e-12) > 0.9 * (cv.SimoTailTable.GRID - 1)

    def test_tails_leave_the_warning_filters_alone(self, monkeypatch):
        # the warning filters are process-wide: the tails, which grid-level
        # threads share, neither read nor change them
        calls = []
        catch_warnings = warnings.catch_warnings

        def recording(*args, **kwargs):
            calls.append(args)
            return catch_warnings(*args, **kwargs)

        monkeypatch.setattr(warnings, "catch_warnings", recording)
        q = cv.SimoTailTable(FIG2_SPEC, 500, 1e-3).q_s(0.6)
        assert calls == []
        assert np.all((q >= 0.0) & (q <= 1.0))

    def test_fig2_tails_raise_no_warnings(self):
        table = cv.SimoTailTable(FIG2_SPEC, 500, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma in (-1.0, 0.3, 0.6, 0.69, 1.0, 3.0):
                table.mean_q_s(gamma)
                table.log_mean_q_l(gamma, "lower")
                table.log_mean_q_l(gamma, "upper")


class TestFig2SelectionRoot:
    """`mc.root_find_monotone` on the selection functions of `conv-simo` and `ach-csir-kb`."""

    @pytest.mark.parametrize("n", [20, 200, 500, 2000])
    def test_few_evaluations_and_required_side(self, n):
        table = cv.SimoTailTable(FIG2_SPEC, n, 1e-3)
        cases = [
            (lambda g: table.mean_q_s(g)[0], 1e-3, "at_least"),
            (lambda g: table.mean_q_s(g)[1], 1e-3 - 1e-4, "below"),
        ]
        for f, target, side in cases:
            calls = []
            gamma = mc.root_find_monotone(lambda g: calls.append(g) or f(g), target, table.bracket, side)
            assert len(calls) <= 25
            tol = 1e-12 * max(1.0, abs(gamma))
            if side == "at_least":
                assert f(gamma) >= target and f(gamma - tol) < target
            else:
                assert f(gamma) <= target and f(gamma + tol) > target


class TestCellBounds:
    def test_monotone_values_bound_each_cell_by_its_ends(self):
        v = np.array([-np.inf, -np.inf, -9.0, -4.0, -1.0, 0.0, 0.0])
        lower, upper = cv._cell_bounds(v)
        assert np.array_equal(lower, np.minimum(v[:-1], v[1:]))
        assert np.array_equal(upper, np.maximum(v[:-1], v[1:]))

    def test_extremum_widens_the_cells_about_it(self):
        # a maximum at point 3 (with a flat step) and a minimum at point 7
        v = np.array([0.0, 1.0, 3.0, 4.0, 4.0, 2.5, 1.0, 0.5, 2.0])
        lower, upper = cv._cell_bounds(v)
        # the maximum lies in cells 2..4; the larger enclosing difference is 1.5
        assert np.array_equal(upper[2:5], [5.5, 5.5, 5.5])
        assert np.array_equal(upper[[0, 1, 5]], [1.0, 3.0, 2.5])
        # the minimum lies in cells 6..7; the larger enclosing difference is 1.5
        assert np.array_equal(lower[6:8], [-1.0, -1.0])
        assert np.array_equal(lower[:6], np.minimum(v[:-1], v[1:])[:6])
        # a concave bump between the grid points stays inside the bound
        x = np.linspace(2.0, 4.0, 201)
        assert np.all(4.0 - 0.5 * (x - 3.4) ** 2 <= 5.5)

    def test_rounding_is_flat(self):
        v = np.array([1.0, 1.0 - 4e-16, 1.0, 1.0 - 4e-16, 0.5])
        assert np.array_equal(cv._cell_bounds(v)[1], np.maximum(v[:-1], v[1:]))

    def test_unresolved_extrema_raise(self):
        with pytest.raises(ConvergenceError):
            cv._cell_bounds(np.array([0.0, 1.0, 0.5, 1.0, 0.0]))


class TestSimoTailTableMeans:
    @pytest.mark.parametrize("spec", [FIG2_SPEC, FIG5_SPEC], ids=["fig2", "fig5"])
    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.2, 0.6, 1.0, 3.0])
    def test_mean_ends_are_cell_sums_of_the_grid_values(self, spec, gamma):
        # the quadrature sums exactly the per-grid-point evaluations: where
        # q_s is monotone on the grid, the lower end takes each cell's
        # smaller end and nothing outside the grid, the upper end its larger
        # end and all the mass outside
        table = cv.SimoTailTable(spec, 60, 1e-3)
        q = table.q_s(gamma)
        lo, hi = table.mean_q_s(gamma)
        assert np.all(np.diff(q) <= 1e-12)
        assert lo == pytest.approx(float(table.prob @ np.minimum(q[:-1], q[1:])), rel=1e-12, abs=1e-300)
        want = float(table.prob @ np.maximum(q[:-1], q[1:])) + math.exp(table.log_tail + min(60 * gamma, 0.0))
        assert hi == pytest.approx(want, rel=1e-12)

    def test_non_monotone_q_s_mean_is_bracketed(self):
        # at n = 11 and gamma = -0.75 q_s peaks inside the Fig. 5 grid: the
        # cells about the peak take the enclosing-difference slack, and the
        # fine-grid reference mean lies inside the ends
        table = cv.SimoTailTable(FIG5_SPEC, 11, 0.1)
        q = table.q_s(-0.75)
        peak = int(np.argmax(q))
        assert 0 < peak < q.size - 1
        _, upper = cv._cell_bounds(q)
        assert upper[peak] > q[peak] and upper[peak - 1] > q[peak]
        lo, hi = table.mean_q_s(-0.75)
        ref = oracles.FineSimoMeans(FIG5_SPEC, 11, 0.1).mean_q_s(-0.75)
        assert lo <= ref <= hi
        # apart from the mass outside the grid, the ends are within 5 %
        assert hi - math.exp(table.log_tail) - lo < 0.05 * ref

    @pytest.mark.parametrize("budget, side", [(1e-2, "at_least"), (1e-2 - 1e-3, "below")])
    def test_threshold_ends_enclose_the_reference_root(self, budget, side):
        table = cv.SimoTailTable(FIG2_SPEC, 200, 1e-2)
        g_lo = table.threshold(budget, side, "lower")
        g_up = table.threshold(budget, side, "upper")
        ref = oracles.FineSimoMeans(FIG2_SPEC, 200, 1e-2).threshold(budget, side)
        # a smaller mean crosses the budget later
        assert g_up <= ref <= g_lo
        tol = 1e-12 * max(1.0, abs(g_lo))
        if side == "at_least":
            assert table.mean_q_s(g_lo)[0] >= budget > table.mean_q_s(g_lo - tol)[0]
        else:
            assert table.mean_q_s(g_up)[1] <= budget < table.mean_q_s(g_up + tol)[1]

    def test_threshold_returns_far_end_when_the_mean_does_not_cross(self):
        # both ends of the mean lie in [0, 1 + the mass outside the grid], and
        # the lower one in [0, 1], so budgets 0 and 1 are met at the far ends
        table = cv.SimoTailTable(FIG2_SPEC, 200, 1e-3)
        lo, hi = table.bracket
        assert table.threshold(0.0, "at_least", "upper", (lo, 0.5)) == lo
        assert table.threshold(1.0, "below", "lower", (0.5, hi)) == hi

    def test_requires_single_transmit_antenna(self):
        with pytest.raises(DomainError):
            cv.SimoTailTable(FIG3_SPEC, 100, 1e-3)


class TestConverseSimo:
    def test_requires_single_transmit_antenna(self):
        with pytest.raises(DomainError):
            cv.converse_simo(FIG3_SPEC, 100, 1e-3)

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            cv.converse_simo(FIG2_SPEC, 100, 1.5)
        with pytest.raises(DomainError):
            cv.converse_simo(FIG2_SPEC, 0, 1e-3)

    def test_vanishing_snr_has_no_gain_law_mass_to_bound(self):
        # every gain lies below 1e-6 / n, which the tails do not resolve:
        # no lower end of the mean of q_s reaches epsilon
        spec = ch.ChannelSpec(t=1, r=2, snr=1e-12, fading=ch.Rayleigh())
        with pytest.raises(DomainError, match="gain law"):
            cv.converse_simo(spec, 50, 1e-3)

    def test_degenerate_fading_awgn_limit(self):
        # near-deterministic gain: at the median error level the dispersion
        # term vanishes and the bound must approach the nonfading capacity
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rician(k_factor=1e12))
        rate, _ = cv.converse_simo(spec, 1999, 0.5)
        assert abs(rate - math.log(2.0)) < 0.05 * math.log(2.0)

    def test_degenerate_fading_matches_nonfading_reference(self):
        # at small error rates the bound tracks the classical nonfading
        # second-order value C - sqrt(V/n) Qinv(eps) + log(n)/(2n)
        from fbl import approx as ap

        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rician(k_factor=1e12))
        rate, _ = cv.converse_simo(spec, 1999, 1e-3)
        ref = ap.awgn_reference_rate(1.0, 1999, 1e-3)
        assert abs(rate - ref) < 0.02 * math.log(2)

    def test_fig2_level_at_n_400(self):
        # near-deterministic Rician fading keeps a visible dispersion penalty
        # at this blocklength: the bound sits a little below the one-bit
        # epsilon-capacity and climbs toward it
        rate, _ = cv.converse_simo(FIG2_SPEC, 400, 1e-3)
        assert 0.95 <= rate / math.log(2) <= 1.02

    @pytest.mark.parametrize(
        "spec, n, eps, width_bits",
        [(FIG2_SPEC, 500, 1e-3, 0.003), (FIG5_SPEC, 100, 0.1, 0.02)],
        ids=["fig2", "fig5"],
    )
    def test_ci_is_a_bracket_about_the_reference(self, spec, n, eps, width_bits):
        # ci runs from the upper-end quadrature to the reported lower-end
        # one, and holds the fine-grid reference value of the bound. Its
        # width is the grid's, wider where the gain law spans more octaves
        rate, (lo, hi) = cv.converse_simo(spec, n, eps)
        assert hi == rate
        ref = oracles.FineSimoMeans(spec, n + 1, eps).converse(n, eps)
        assert lo <= ref <= rate
        assert rate - lo < width_bits * math.log(2)

    def test_monotone_in_epsilon(self):
        r_lo, _ = cv.converse_simo(FIG2_SPEC, 199, 0.1)
        r_hi, _ = cv.converse_simo(FIG2_SPEC, 199, 0.5)
        assert r_hi > r_lo

    def test_nonincreasing_toward_epsilon_capacity(self):
        cfg = mc.MCConfig(seed=7, samples=50_000)
        c_eps, _ = og.epsilon_capacity(FIG2_SPEC, ch.WaterFill(), 1e-3, cfg)
        near, _ = cv.converse_simo(FIG2_SPEC, 800, 1e-3)
        far, _ = cv.converse_simo(FIG2_SPEC, 200, 1e-3)
        slack = 0.05 * math.log(2)
        assert abs(near - c_eps) <= abs(far - c_eps) + slack


@st.composite
def simo_channels(draw):
    """A t = 1 channel of every fading kind, with epsilon and n."""
    fading = draw(
        st.one_of(
            st.just(ch.Rayleigh()),
            st.builds(lambda k_db: ch.Rician(k_factor=db_to_linear(k_db)), st.floats(-10.0, 30.0)),
            st.builds(lambda m: ch.Nakagami(m_shape=m), st.floats(0.5, 4.0)),
        )
    )
    spec = ch.ChannelSpec(t=1, r=draw(st.integers(1, 3)), snr=db_to_linear(draw(st.floats(-10.0, 20.0))), fading=fading)
    return spec, 10.0 ** draw(st.floats(-5.0, math.log10(0.2))), draw(st.integers(1, 500))


@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(simo_channels())
def test_t1_brackets_hold_the_fine_reference(channel):
    # the standing form of the scan in docs/DECISIONS.md, section 1: neither
    # bound raises ConvergenceError (a grid cell holding two extrema), and
    # each ci holds the fine-grid value of its bound, the
    # receiver-side-information bound's at its winning tau
    spec, epsilon, n = channel
    _, (lo, hi) = cv.converse_simo(spec, n, epsilon)
    assert lo <= oracles.FineSimoMeans(spec, n + 1, epsilon).converse(n, epsilon) <= hi
    at_tau = {}
    for tau in ach.tau_grid(n, epsilon):
        try:
            at_tau[tau] = ach.csir_kappa_beta_simo(spec, n, epsilon, tau)
        except ConfigurationError:
            continue  # the type-I failure exceeds epsilon - tau throughout
    tau = max(at_tau, key=lambda t: at_tau[t][0])
    assert at_tau[tau] == ach.csir_kappa_beta_simo(spec, n, epsilon, None)
    lo, hi = at_tau[tau][1]
    assert lo <= oracles.FineSimoMeans(spec, n, epsilon).kappa_beta(n, epsilon, tau) <= hi


class TestConverseIso:
    def test_epsilon_and_blocklength_domain(self):
        cfg = mc.MCConfig(seed=1, samples=1000)
        with pytest.raises(DomainError):
            oracles.converse_iso_rate(FIG3_SPEC, 100, 0.0, cfg)
        with pytest.raises(DomainError):
            oracles.converse_iso_rate(FIG3_SPEC, 0, 1e-3, cfg)

    def test_vanishing_channel_rate_near_zero(self):
        spec = ch.ChannelSpec(t=1, r=1, snr=1e-12, fading=ch.Rayleigh())
        cfg = mc.MCConfig(seed=2, samples=5_000)
        rate, _ = oracles.converse_iso_rate(spec, 100, 1e-3, cfg)
        assert 0.0 <= rate < 0.01

    def test_single_antenna_statistic_matches_gain_mixture_ks(self):
        # t = 1: the isotropic statistic law must coincide with the gain
        # mixture of the scalar chi-square laws (independent scipy route)
        n, size = 60, 20_000
        draw = cv.iso_statistic_sampler(FIG2_SPEC, n)
        rng = _rng(10)
        impl = draw(rng, size, og.mode_gains(FIG2_SPEC, ch.Isotropic(), rng, size))
        rng = _rng(11)
        h = ch.sample_channel(FIG2_SPEC, rng, size)
        a = FIG2_SPEC.snr * np.sum(np.abs(h) ** 2, axis=(-2, -1))
        x = stats.ncx2.rvs(2 * n, 2.0 * n / a, random_state=rng)
        oracle = np.log1p(a) + 1.0 - (a / (2.0 * (1.0 + a))) * x / n
        assert stats.ks_2samp(impl, oracle).pvalue > 0.01

    def test_auxiliary_statistic_matches_gain_mixture_ks(self):
        n, size = 60, 20_000
        draw = oracles.iso_aux_statistic_sampler(FIG2_SPEC, n)
        impl = draw(_rng(12), size)
        rng = _rng(13)
        h = ch.sample_channel(FIG2_SPEC, rng, size)
        a = FIG2_SPEC.snr * np.sum(np.abs(h) ** 2, axis=(-2, -1))
        x = stats.ncx2.rvs(2 * n, 2.0 * n * (1.0 + a) / a, random_state=rng)
        oracle = np.log1p(a) + 1.0 - (a / 2.0) * x / n
        assert stats.ks_2samp(impl, oracle).pvalue > 0.01

    def test_fig3_levels(self):
        cfg = mc.MCConfig(seed=3, samples=50_000)
        near = oracles.converse_iso_rate(FIG3_SPEC, 800, 1e-3, cfg)[0] / math.log(2)
        far = oracles.converse_iso_rate(FIG3_SPEC, 120, 1e-3, cfg)[0] / math.log(2)
        assert far >= 0.9
        assert near >= 0.9
        # approaches the one-bit limit from above
        assert near >= 1.0 - 0.01
        assert near <= far + 0.02


def _tilt_inputs(lam, n, gamma):
    """Per-row (s, delta, c, ok) of the conv-iso tilted sampler."""
    pos = lam > 0.0
    lam_safe = np.where(pos, lam, 1.0)
    s = np.where(pos, 0.5 * lam_safe, 0.0)
    delta = np.where(pos, 2.0 * n * (1.0 + lam_safe) / lam_safe, 0.0)
    c = n * np.sum(np.where(pos, np.log1p(lam) + 1.0, 0.0), axis=-1) - n * gamma
    return s, delta, c, c > 0.0


def _tilted_mean(theta, s, delta, k):
    d = 1.0 + 2.0 * theta[..., None] * s
    return np.sum(s * (k + delta / d) / d, axis=-1)


class TestTiltSolve:
    def test_solves_tilted_mean_below_untilted_mean(self):
        for n in (10, 100, 1000):
            k = 2 * n
            h = ch.sample_channel(FIG3_SPEC, _rng(20), 2000)
            lam = ch.effective_eigenvalues(h, ch.Isotropic(), FIG3_SPEC)
            lam[:5] = 0.0  # channels with no usable mode
            for gamma in (-2.0, 0.0, 1.0, 2.0, 3.0):
                s, delta, c, ok = _tilt_inputs(lam, n, gamma)
                c = np.where(ok, c, 1.0)
                theta = cv._tilt_solve(s, delta, k, c, ok)
                m0 = _tilted_mean(np.zeros(c.shape), s, delta, k)
                below = ok & (c < m0)
                assert np.all(theta[~below] == 0.0)
                assert np.all(theta[below] > 0.0)
                rel = np.abs(_tilted_mean(theta, s, delta, k) - c) / c
                assert np.all(rel[below] <= 1e-12)

    def test_deep_targets_and_inactive_rows(self):
        # targets down to 1e-8 of the untilted mean, and rows switched off
        n, k = 200, 400
        h = ch.sample_channel(FIG3_SPEC, _rng(21), 500)
        lam = ch.effective_eigenvalues(h, ch.Isotropic(), FIG3_SPEC)
        s, delta, _, _ = _tilt_inputs(lam, n, 0.0)
        m0 = _tilted_mean(np.zeros(500), s, delta, k)
        c = m0 * np.exp(np.linspace(math.log(1e-8), math.log(1.5), 500))
        active = np.arange(500) % 7 != 0
        theta = cv._tilt_solve(s, delta, k, c, active)
        below = active & (c < m0)
        assert np.all(theta[~below] == 0.0)
        rel = np.abs(_tilted_mean(theta, s, delta, k) - c) / c
        assert np.all(rel[below] <= 1e-12)

    @pytest.mark.parametrize("t, r", [(2, 3), (2, 2), (3, 3), (4, 6)])
    def test_equals_the_axis_sum_form(self, t, r):
        # per-mode arrays summed in order against np.sum over the last axis:
        # n from 20 to 3000, thresholds from below every row's c (all
        # active) to above it (all c <= 0), and channels with no usable mode
        for fading in (ch.Rayleigh(), ch.Rician(k_factor=5.0), ch.Nakagami(m_shape=0.7)):
            spec = ch.ChannelSpec(t=t, r=r, snr=db_to_linear(2.12), fading=fading)
            lam = ch.effective_eigenvalues(ch.sample_channel(spec, _rng(25 + t + r), 1000), ch.Isotropic(), spec)
            lam[:5] = 0.0
            for n in (20, 100, 500, 3000):
                for gamma in (-1.0, 1.0, 2.0, 3.0, 8.0):
                    s, delta, c, ok = _tilt_inputs(lam, n, gamma)
                    c = np.where(ok, c, 1.0)
                    np.testing.assert_array_equal(
                        cv._tilt_solve(s, delta, 2 * n, c, ok), oracles.axis_sum_tilt_solve(s, delta, 2 * n, c, ok)
                    )

    def test_tilted_estimator_matches_plain_monte_carlo(self):
        # P[L_n >= n gamma] about 0.05 on a 2x2 channel at n = 10: the mean of
        # the importance weights and the plain hit rate agree within their
        # joint confidence interval
        spec = ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rayleigh())
        n, size = 10, 200_000
        plain = oracles.iso_aux_statistic_sampler(spec, n)
        gamma = float(np.quantile(plain(_rng(22), 50_000), 0.95))
        hits = plain(_rng(23), size) >= gamma
        p_plain = float(np.mean(hits))
        se_plain = math.sqrt(p_plain * (1.0 - p_plain) / size)
        rng = _rng(24)
        lam = og.mode_gains(spec, ch.Isotropic(), rng, size)
        w = np.exp(cv._iso_log_tail_sampler(spec, n, gamma)(rng, size, lam))
        p_tilt = float(np.mean(w))
        se_tilt = float(np.std(w) / math.sqrt(size))
        assert 0.03 < p_plain < 0.07
        assert abs(p_tilt - p_plain) <= 4.0 * math.hypot(se_plain, se_tilt)


class TestAsymptoticConstants:
    cfg = mc.MCConfig(seed=8, samples=100_000)

    def test_bracket_collapse_at_n_1(self):
        spec = ch.ChannelSpec(t=1, r=1, snr=2.0, fading=ch.Rayleigh())
        val = oracles.log_c_csirt(spec, 1, self.cfg)
        # E[det(I + rho h h*)] = 1 + rho exactly for a unit-variance entry
        assert val == pytest.approx(math.log(3.0), abs=0.01)

    def test_single_receive_antenna_collapse(self):
        # with one antenna on each side and moment exponent 1, both constants
        # reduce to the same bracket-plus-mean expression
        spec = ch.ChannelSpec(t=1, r=1, snr=1.5, fading=ch.Rayleigh())
        a = oracles.log_c_csirt(spec, 50, self.cfg)
        b = oracles.log_c_csir(spec, 50, self.cfg)
        assert a == pytest.approx(b, abs=0.02)

    def test_csirt_normalized_growth_bounded(self):
        spec = ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rayleigh())
        vals = [oracles.log_c_csirt(spec, n, self.cfg) - 0.5 * spec.m * math.log(n) for n in (10, 100, 1000)]
        assert max(vals) - min(vals) < 1.0

    def test_csir_normalized_growth_bounded(self):
        spec = ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rayleigh())
        vals = [oracles.log_c_csir(spec, n, self.cfg) - 0.5 * spec.r**2 * math.log(n) for n in (10, 100, 1000)]
        assert max(vals) - min(vals) < 1.5

    def test_csir_moment_stable_across_seeds(self):
        spec = ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rayleigh())
        vals = [oracles.log_c_csir(spec, 100, mc.MCConfig(seed=s, samples=100_000)) for s in (1, 2, 3)]
        assert max(vals) - min(vals) < 0.05

    def test_csir_blocklength_domain(self):
        spec = ch.ChannelSpec(t=2, r=3, snr=1.0, fading=ch.Rayleigh())
        with pytest.raises(DomainError):
            oracles.log_c_csir(spec, 2, self.cfg)
