"""Special-function tests against independent high-precision oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from fbl import channel as ch
from fbl import converse as cv
from fbl import specfun as sf
from fbl.config import db_to_linear
from fbl.errors import DomainError

mpmath.mp.dps = 50


class TestLogGamma:
    def test_gamma_one(self):
        assert oracles.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_five(self):
        assert oracles.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)

    def test_gamma_half(self):
        assert oracles.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            oracles.log_gamma(0.0)
        with pytest.raises(DomainError):
            oracles.log_gamma(-1.0)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_matches_multiprecision(self, a):
        oracle = float(mpmath.log(mpmath.gamma(a)))
        got = oracles.log_gamma(a)
        assert got == pytest.approx(oracle, rel=1e-12, abs=1e-12)


class TestLogUpperIncGamma:
    def test_at_zero(self):
        assert oracles.log_upper_inc_gamma(1.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_exponential_tail(self):
        for x in (0.5, 3.0, 40.0):
            assert oracles.log_upper_inc_gamma(1.0, x) == pytest.approx(-x, rel=1e-12)

    def test_series_oracle_a50_x49(self):
        # independent oracle: direct high-precision upper incomplete gamma
        oracle = float(mpmath.log(mpmath.gammainc(50, 49, mpmath.inf)))
        assert oracles.log_upper_inc_gamma(50.0, 49.0) == pytest.approx(oracle, rel=1e-10)

    @given(
        st.floats(min_value=0.5, max_value=2e3),
        st.floats(min_value=0.0, max_value=5e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_multiprecision(self, a, x):
        oracle = mpmath.log(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x), mpmath.inf))
        got = oracles.log_upper_inc_gamma(a, x)
        assert got == pytest.approx(float(oracle), rel=1e-8, abs=1e-8)

    def test_large_parameters_scipy_reference(self):
        # the multiprecision oracle is impractically slow above a ~ 1e4
        from scipy import special as scisp

        rng = np.random.default_rng(0)
        for _ in range(500):
            a = float(10 ** rng.uniform(2, 5))
            x = float(10 ** rng.uniform(-3, math.log10(2e5)))
            q = scisp.gammaincc(a, x)
            if q < 1e-290:
                continue
            oracle = math.log(q) + scisp.gammaln(a)
            assert oracles.log_upper_inc_gamma(a, x) == pytest.approx(oracle, rel=1e-10, abs=1e-8)


class TestLogRegLowerIncGamma:
    @given(
        st.floats(min_value=0.5, max_value=2e3),
        st.floats(min_value=1e-6, max_value=5e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_multiprecision(self, a, x):
        oracle = mpmath.log(
            mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(x), regularized=True)
        )
        got = oracles.log_reg_lower_inc_gamma(a, x)
        assert got == pytest.approx(float(oracle), rel=1e-8, abs=1e-8)


class TestRegIncBeta:
    def test_at_one(self):
        assert oracles.reg_inc_beta(1.0, 2.5, 3.5) == 1.0

    def test_uniform(self):
        assert oracles.reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_cube(self):
        assert oracles.reg_inc_beta(0.5, 3.0, 1.0) == pytest.approx(0.125, rel=1e-10)

    def test_rejects_bad_x(self):
        with pytest.raises(DomainError):
            oracles.reg_inc_beta(1.5, 1.0, 1.0)


class TestLogComplexMultivariateGamma:
    def test_rank_one_reduces_to_gamma(self):
        assert oracles.log_complex_multivariate_gamma(1, 7.3) == pytest.approx(
            oracles.log_gamma(7.3), rel=1e-12
        )

    def test_rank_two(self):
        assert oracles.log_complex_multivariate_gamma(2, 3.0) == pytest.approx(
            math.log(2.0 * math.pi), rel=1e-12
        )

    def test_rank_three_product_oracle(self):
        oracle = mpmath.mpf(math.pi) ** 3
        for i in range(1, 4):
            oracle *= mpmath.gamma(10 - i + 1)
        got = oracles.log_complex_multivariate_gamma(3, 10.0)
        assert got == pytest.approx(float(mpmath.log(oracle)), rel=1e-12)

    def test_rejects_small_argument(self):
        with pytest.raises(DomainError):
            oracles.log_complex_multivariate_gamma(3, 2.0)


def _marcum_q1_series(a, b, terms=2000):
    """Q_1(a,b) by the Bessel series, in mpmath precision."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    total = mpmath.mpf(0)
    for k in range(terms):
        total += (a * a / 2) ** k / mpmath.factorial(k) * mpmath.gammainc(
            k + 1, b * b / 2, mpmath.inf, regularized=True
        )
    return total * mpmath.e ** (-a * a / 2)


class TestNoncentralChi2Cdf:
    def test_central_reduction(self):
        for x, k in ((3.0, 4), (10.0, 2), (0.7, 8)):
            oracle = float(
                mpmath.gammainc(k / 2, 0, x / 2, regularized=True)
            )
            assert oracles.noncentral_chi2_cdf(x, k, 0.0) == pytest.approx(oracle, abs=1e-12)

    def test_at_zero(self):
        assert oracles.noncentral_chi2_cdf(0.0, 6, 11.0) == 0.0

    def test_marcum_oracle(self):
        # two degrees of freedom: CDF(x; 2, d) = 1 - Q_1(sqrt(d), sqrt(x))
        oracle = float(1 - _marcum_q1_series(math.sqrt(3.0), math.sqrt(5.0)))
        assert oracles.noncentral_chi2_cdf(5.0, 2, 3.0) == pytest.approx(oracle, abs=1e-10)

    def test_monotone_in_x_and_delta(self):
        xs = np.linspace(0.0, 60.0, 25)
        deltas = np.linspace(0.0, 40.0, 9)
        for d in deltas:
            vals = [oracles.noncentral_chi2_cdf(float(x), 10, float(d)) for x in xs]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for x in xs:
            vals = [oracles.noncentral_chi2_cdf(float(x), 10, float(d)) for d in deltas]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_large_parameters(self):
        # mean k + delta; CDF at the mean must be strictly inside (0, 1)
        val = oracles.noncentral_chi2_cdf(1.1e5 + 1e6, 100_000, 1e6)
        assert 0.5 < val < 1.0

    def test_scipy_cross_check(self):
        from scipy import stats

        rng = np.random.default_rng(0)
        for _ in range(50):
            k = 2 * int(rng.integers(1, 200))
            d = float(rng.uniform(0, 5000))
            x = float(rng.uniform(0, k + d + 4 * math.sqrt(2 * (k + 2 * d))))
            assert oracles.noncentral_chi2_cdf(x, k, d) == pytest.approx(
                float(stats.ncx2.cdf(x, k, d)) if d > 0 else float(stats.chi2.cdf(x, k)),
                abs=1e-9,
            )


class TestNoncentralChi2LogCdf:
    def test_agrees_with_cdf_in_bulk(self):
        for x, k, d in ((30.0, 20, 10.0), (100.0, 40, 80.0)):
            assert oracles.noncentral_chi2_logcdf(x, k, d) == pytest.approx(
                math.log(oracles.noncentral_chi2_cdf(x, k, d)), abs=1e-9
            )

    def test_deep_tail_against_multiprecision(self):
        # far-left tail where the plain CDF underflows
        k, d, x = 200, 4000.0, 800.0
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            j = 0
            while True:
                term = mpmath.e ** (
                    -d / 2 + j * mpmath.log(d / 2) - mpmath.log(mpmath.factorial(j))
                ) * mpmath.gammainc(k / 2 + j, 0, x / 2, regularized=True)
                total += term
                if j > d and term < total * mpmath.mpf(10) ** -40:
                    break
                j += 1
            oracle = float(mpmath.log(total))
        assert oracles.noncentral_chi2_logcdf(x, k, d) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-8])
    def test_chernoff_small_noncentrality_does_not_cancel(self, delta):
        # the saddle point must not cancel to 0 when delta * x << k^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower, _ = sf.noncentral_chi2_chernoff(np.array([1.0]), 1000, np.array([delta]))
        got = lower[0]
        # the central exponent (k/2) ln(x/k) + (k - x)/2 at k = 1000, x = 1
        assert got == pytest.approx(500.0 * math.log(1e-3) + 499.5, abs=1e-6)
        assert got == pytest.approx(-2954.4, abs=0.1)

    def test_chernoff_dominates_logcdf(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            k = 2 * int(rng.integers(1, 100))
            d = float(rng.uniform(1.0, 2000))
            mean = k + d
            x = float(rng.uniform(0.05 * mean, 0.9 * mean))
            lc = oracles.noncentral_chi2_logcdf(x, k, d)
            lower, _ = sf.noncentral_chi2_chernoff(np.array([x]), k, np.array([d]))
            ch = float(lower[0])
            assert lc <= ch + 1e-9


class TestBatchTails:
    def test_sf_batch_matches_scalar(self):
        from scipy import stats

        x = np.array([5.0, 50.0, 500.0, 5e3])
        delta = np.array([1.0, 40.0, 600.0, 6e3])
        got = sf.noncentral_chi2_sf_batch(x, 20, delta)
        want = stats.ncx2.sf(x, 20, delta)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_sf_batch_nan_rows_read_nan(self):
        # a NaN x meets no Chernoff cutoff and goes to Boost, which returns
        # NaN; the other rows keep their values
        x = np.array([math.nan, 3.0, math.nan, -1.0, 1e9])
        delta = np.array([2.0, 2.0, 5e7, 2.0, 2.0])
        got = sf.noncentral_chi2_sf_batch(x, 4, delta)
        assert np.isnan(got[0]) and np.isnan(got[2])
        np.testing.assert_array_equal(got[[1, 3, 4]], sf.noncentral_chi2_sf_batch(x[[1, 3, 4]], 4, delta[[1, 3, 4]]))
        assert got[3] == 1.0 and got[4] == 0.0

    def test_logcdf_batch_matches_scalar(self):
        x = np.array([100.0, 160.0, 220.0])
        delta = np.array([400.0, 400.0, 400.0])
        got = sf.noncentral_chi2_logcdf_batch(x, 100, delta)
        for g, xx, dd in zip(got, x, delta):
            assert g == pytest.approx(oracles.noncentral_chi2_logcdf(float(xx), 100, float(dd)), abs=1e-7)

    def test_logcdf_batch_evaluates_every_row(self):
        # no row is dropped, however far below the others: rows at x <= 0
        # are exactly -inf, and every other row is exact, below its
        # Chernoff bound
        x = np.concatenate([[-1.0, 0.0], np.linspace(10.0, 400.0, 50)])
        delta = np.full_like(x, 500.0)
        got = sf.noncentral_chi2_logcdf_batch(x, 60, delta)
        assert np.all(np.isneginf(got[:2])) and np.all(np.isfinite(got[2:]))
        assert np.all(got[2:] <= sf.noncentral_chi2_chernoff(x[2:], 60, delta[2:])[0])
        for g, xx in zip(got[2:], x[2:]):
            assert g == pytest.approx(oracles.noncentral_chi2_logcdf(float(xx), 60, 500.0), abs=1e-7)


def _sd_points(k, delta, multiples):
    mean, sd = k + delta, math.sqrt(2.0 * (k + 2.0 * delta))
    return np.array([mean + m * sd for m in multiples if mean + m * sd > 0.0])


class TestBatchTailsReferee:
    """Both batch tails against mpmath quadratures of the Bessel-form density.

    The grid spans n = 10..2000 (k = 2n; the log-CDF also n = 2, 3, 5) and
    delta = 10..1e12, covering the band delta >= 1e10.5 where Boost's ncx2
    warns "Series did not converge" and drifts (0.43 against 0.50 at
    delta = 1e12).
    """

    @pytest.mark.parametrize("n", [10, 100, 500, 2000])
    @pytest.mark.parametrize("delta", [10.0, 1e3, 1e6, 1e11, 1e12])
    def test_sf_batch(self, n, delta):
        k = 2 * n
        x = _sd_points(k, delta, (-3.0, 3.0))
        got = sf.noncentral_chi2_sf_batch(x, k, np.full(x.shape, delta))
        want = [oracles.mp_noncentral_chi2_sf(float(xx), k, delta) for xx in x]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # the Bessel series behind the referee does not converge at n = 2000 for
    # 1e5 <= delta <= 1e9, so that corner of the grid is left out
    @pytest.mark.parametrize(
        "n, delta",
        [(n, d) for n in (10, 100, 500) for d in (10.0, 1e3, 1e6, 1e9, 1e12)]
        + [(2000, d) for d in (10.0, 1e3, 1e12)]
        + [(n, d) for n in (2, 3, 5) for d in (10.0, 1e3, 1e6, 1e9, 1e12)],
    )
    def test_logcdf_batch(self, n, delta):
        # the mean, and about 30 and 300 nats down the left tail
        k = 2 * n
        x = _sd_points(k, delta, (0.0, -7.7, -24.5))
        got = sf.noncentral_chi2_logcdf_batch(x, k, np.full(x.shape, delta))
        want = [oracles.mp_noncentral_chi2_logcdf(float(xx), k, delta) for xx in x]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    # thresholds inside or below the chi bulk, where a grid in u that stops
    # at sqrt(x) loses accuracy (+1.1e-6 nats at the first point, +0.66 at
    # the second); each also lies deep in the left tail
    @pytest.mark.parametrize(
        "n, x, delta",
        [(3, 2.0, 700.0), (5, 0.3, 20.0), (2, 0.05, 5.0), (10, 4.0, 3e3), (500, 900.0, 10.0), (500, 300.0, 2e3)],
    )
    def test_logcdf_batch_deep_tail(self, n, x, delta):
        got = sf.noncentral_chi2_logcdf_batch(np.array([x]), 2 * n, np.array([delta]))
        want = oracles.mp_noncentral_chi2_logcdf(x, 2 * n, delta, dps=40)
        assert got[0] == pytest.approx(want, abs=1e-9)

    def test_boost_band_is_routed_around(self):
        k, delta = 1000, 1e12
        x = _sd_points(k, delta, (0.0,))
        with pytest.warns(RuntimeWarning):
            boost = float(stats.ncx2.sf(x[0], k, delta))
        want = oracles.mp_noncentral_chi2_sf(float(x[0]), k, delta)
        assert abs(boost - want) > 0.05
        assert sf.noncentral_chi2_sf_batch(x, k, np.array([delta]))[0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("k", [20, 1000, 4000])
    @pytest.mark.parametrize("delta", [10.0, 1e3, 1e6, 1e10, 1e11, 1e12])
    def test_boost_tail_is_scipy_stats_ncx2(self, k, delta):
        # pins the private ufunc that noncentral_chi2_sf_batch calls to
        # scipy.stats.ncx2.sf: the same values, and the same rows warn (all
        # of them at delta = 1e12)
        x = _sd_points(k, delta, (-3.0, 0.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = sf._ncx2_sf(x, k, np.full(x.shape, delta))
        warned = {}
        for name, f in (("ufunc", sf._ncx2_sf), ("stats", stats.ncx2.sf)):
            warned[name] = np.zeros(x.shape, dtype=bool)
            for i, xx in enumerate(x):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    assert got[i] == f(xx, k, delta)
                warned[name][i] = bool(caught)
        np.testing.assert_array_equal(warned["ufunc"], warned["stats"])
        assert warned["stats"].all() == (delta == 1e12)

    def test_rows_past_boost_accuracy_use_the_quadrature(self, monkeypatch):
        # Boost takes the rows with delta <= min(100 k, 1e6); at k = 4e4 the
        # rows with 1e6 < delta <= 100 k go to the quadrature as well
        k = 40_000
        deltas = np.array([5e5, 1e6, 2e6, 4e6, 5e6])
        x = np.concatenate([_sd_points(k, d, (-2.0, 0.0, 2.0)) for d in deltas])
        delta = np.repeat(deltas, 3)
        reached = []
        boost = sf._ncx2_sf

        def recording(xx, kk, dd):
            reached.extend(np.unique(dd))
            return boost(xx, kk, dd)

        monkeypatch.setattr(sf, "_ncx2_sf", recording)
        got = sf.noncentral_chi2_sf_batch(x, k, delta)
        assert sorted(reached) == [5e5, 1e6]
        np.testing.assert_allclose(got, stats.ncx2.sf(x, k, delta), rtol=0, atol=1e-12)

    def test_boost_does_not_warn_on_its_rows(self):
        # a scan of the rows Boost takes, from delta = 1e-6 to min(100 k, 1e6)
        # and x within 40 standard deviations of the mean
        for k in (2, 20, 200, 2_000, 20_000, 100_000):
            deltas = np.geomspace(1e-6, min(100.0 * k, 1e6), 9)
            for d in deltas:
                x = _sd_points(k, d, np.linspace(-40.0, 40.0, 33))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = sf.noncentral_chi2_sf_batch(x, k, np.full(x.shape, d))
                assert np.all((got >= 0.0) & (got <= 1.0))

    def test_logcdf_batch_matches_scalar_oracle_on_a_simo_grid(self):
        # rows like those of SimoTailTable.log_q_l at n = 500
        n, gamma = 500, 0.6
        a = np.exp(np.linspace(math.log(0.05), math.log(20.0), 40))
        thr = 2.0 * n * (np.log1p(a) + 1.0 - gamma) / a
        delta = 2.0 * n * (1.0 + a) / a
        got = sf.noncentral_chi2_logcdf_batch(thr, 2 * n, delta)
        for g, xx, dd in zip(got, thr, delta):
            assert g == pytest.approx(oracles.noncentral_chi2_logcdf(float(xx), 2 * n, float(dd)), abs=1e-10)


class TestCdfSfPair:
    @pytest.mark.parametrize("k, delta", [(4, 400.0), (6, 30.0), (2, 0.0), (5.4, 0.0)])
    def test_matches_poisson_mixture_with_relative_precision_in_both_tails(self, k, delta):
        mean, sd = k + delta, math.sqrt(2.0 * (k + 2.0 * delta))
        x = mean + sd * np.array([-4.0, -1.0, 0.0, 1.0, 4.0, 8.0])
        x = x[x > 0.0]
        cdf, sf_ = sf.noncentral_chi2_cdf_sf(x, k, delta)
        for xi, c, s in zip(x, cdf, sf_):
            if delta == 0.0:
                ref_c = float(mpmath.gammainc(0.5 * k, 0, 0.5 * xi, regularized=True))
                ref_s = float(mpmath.gammainc(0.5 * k, 0.5 * xi, mpmath.inf, regularized=True))
            else:
                ref_c = oracles.noncentral_chi2_cdf(xi, k, delta)
                ref_s = 1.0 - ref_c if ref_c < 0.5 else None
            assert c == pytest.approx(ref_c, rel=1e-9, abs=1e-13)
            if ref_s is not None:
                assert s == pytest.approx(ref_s, rel=1e-9, abs=1e-13)
            assert c + s == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("delta", [1e8, 2e12])
    def test_huge_noncentrality_is_nearly_normal(self, delta):
        # past delta = 1e6 Boost drifts, and at 2e12 (a 120 dB K-factor) it
        # fails; the quadrature tends to the normal law, within the
        # skewness term 2^(3/2) (k + 3 delta) / (k + 2 delta)^(3/2) / 6
        k = 2
        z = np.linspace(-3.0, 3.0, 13)
        x = k + delta + math.sqrt(2.0 * (k + 2.0 * delta)) * z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf, sf_ = sf.noncentral_chi2_cdf_sf(x, k, delta)
        skew = 2.0**1.5 * (k + 3.0 * delta) / (k + 2.0 * delta) ** 1.5
        assert cdf == pytest.approx(stats.norm.cdf(z), abs=skew)
        assert np.all(np.diff(cdf) > 0.0)
        assert cdf + sf_ == pytest.approx(np.ones(13), abs=1e-15)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLogSumExp:
    """`_log_sum_exp` within 1e-14 max(1, |ref|) of a log-sum-exp in mpmath at
    30 digits, on a few rows of each block, and exact where the sum is empty
    or holds +inf or NaN."""

    @staticmethod
    def _blocks():
        # -inf entries, rows that are all -inf, tied maxima, and a scale from
        # a fraction of a nat to hundreds; the tied rows come with each block
        rng = np.random.default_rng(2021)
        for _ in range(40):
            v = rng.normal(size=(70, 257)) * rng.uniform(0.1, 500.0)
            v[rng.random(v.shape) < 0.3] = -np.inf
            v[rng.integers(0, 70, 4)] = -np.inf
            rows = rng.integers(0, 70, 6)
            v[rows, 3] = v[rows, 200] = np.max(v[rows], axis=1) + 1.0
            yield rng, v, rows

    @staticmethod
    def _assert_refereed(got, v, b=None):
        b = np.ones_like(v) if b is None else b
        with mpmath.workdps(30):
            total = mpmath.fsum(mpmath.mpf(w) * mpmath.exp(x) for x, w in zip(v, b) if w > 0 and x > -np.inf)
            want = float(mpmath.log(total)) if total > 0 else -math.inf
        if math.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_unweighted_rows(self):
        for _, v, rows in self._blocks():
            got = sf._log_sum_exp(v)
            assert got.shape == (70,)
            assert np.all(got[np.all(v == -np.inf, axis=1)] == -np.inf)
            for i in (*rows[:2], 0):
                self._assert_refereed(got[i], v[i])

    def test_weighted_with_zeros(self):
        # zero weights, and rows whose weights are all zero; the weighted
        # one-dimensional call is the one `SimoTailTable.log_mean_q_l` makes
        for rng, v, rows in self._blocks():
            b = rng.random(v.shape)
            b[rng.random(v.shape) < 0.2] = 0.0
            empty = rng.integers(0, 70, 3)
            b[empty] = 0.0
            got = sf._log_sum_exp(v, b=b)
            assert got.shape == (70,) and np.all(got[empty] == -np.inf)
            for i in (*rows[:2], 0):
                self._assert_refereed(got[i], v[i], b[i])
            for i in rng.integers(0, 70, 2):
                one = sf._log_sum_exp(v[i], b=b[i])
                assert type(one) is np.float64 and _same_bits(one, got[i])
                self._assert_refereed(one, v[i], b[i])

    def test_infinite_and_nan_entries(self):
        # a row with +inf or NaN is not shifted, so its large entries overflow
        v = np.array([[-np.inf] * 4, [0.0, 1.0, np.inf, 2.0], [-np.inf, 800.0, np.inf, 2.0], [0.0, np.nan, 800.0, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sf._log_sum_exp(v)
            weighted = sf._log_sum_exp(v, b=np.array([1.0, 0.5, 2.0, 1.0]))
        for out in (got, weighted):
            assert out[0] == -np.inf and out[1] == np.inf and out[2] == np.inf and np.isnan(out[3])

    def test_zero_weight_maximum(self):
        # the largest entry has weight 0 and every weighted one lies at
        # least 800 nats below it, where exp of the difference underflows:
        # the sum is over the weighted entries alone, and finite
        v = np.array([0.0, -800.0, -801.5, -830.0, -2000.0])
        b = np.array([0.0, 0.25, 1.0, 3.0, 1.0])
        got = sf._log_sum_exp(v, b=b)
        assert np.isfinite(got)
        self._assert_refereed(got, v, b)
        rows = sf._log_sum_exp(np.tile(v, (3, 1)), b=np.tile(b, (3, 1)))
        assert _same_bits(rows, np.full(3, got))


FIG2_SPEC = ch.ChannelSpec(t=1, r=2, snr=db_to_linear(-1.55), fading=ch.Rician(k_factor=db_to_linear(20.0)))
FIG5_SPEC = ch.ChannelSpec(t=1, r=2, snr=db_to_linear(2.74), fading=ch.Rayleigh())


class TestChiQuadratureBits:
    """`_chi_quadrature` gives the bits of `oracles.every_node_chi_quadrature`,
    which evaluates the far term at every node and builds every row's own
    nodes: skipping nodes and sharing the pi/2 nodes change no bit. Both sum
    with `_log_sum_exp`, which `TestLogSumExp` referees."""

    @staticmethod
    def _assert_same_bits(x, k, delta):
        assert x.size > sf._QUAD_ROWS
        got = sf._chi_quadrature(x, k, delta)
        assert _same_bits(got, oracles.every_node_chi_quadrature(x, k, delta))
        return got

    @pytest.mark.parametrize("k", [2, 4, 6, 10, 40, 1002, 4000])
    def test_mixed_blocks(self, k):
        # shuffled, so that every block of 64 mixes rows with phi_max = pi/2
        # (x <= (sqrt(k) + 12)^2), rows with phi_max < pi/2 and rows whose far
        # term is live (x near 0, delta <= 20). log Phi(z) is -inf at no
        # finite input (z >= -sqrt(delta)); the last three rows take it to
        # its floor, about -8.5e307, where their sums are -inf
        rng = np.random.default_rng(k)
        edge = (math.sqrt(k) + 12.0) ** 2
        x = np.concatenate(
            [rng.uniform(0.1, edge, 60), rng.uniform(edge, 50.0 * edge, 60), rng.uniform(1e-6, 2.0, 60), [1e-3, 1.0, 1e3]]
        )
        delta = np.concatenate(
            [10.0 ** rng.uniform(-3.0, 12.0, 120), rng.uniform(0.0, 20.0, 60), [1e300, 1.7e308, 1.7e308]]
        )
        order = rng.permutation(x.size)
        got = self._assert_same_bits(x[order], k, delta[order])
        assert np.isneginf(got[np.isin(order, [x.size - 3, x.size - 2, x.size - 1])]).all()
        assert np.isfinite(got[np.isin(order, np.arange(120, 180))]).all()

    @pytest.mark.parametrize("spec, epsilon", [(FIG2_SPEC, 1e-3), (FIG5_SPEC, 0.1)], ids=["fig2", "fig5"])
    @pytest.mark.parametrize("n", [21, 501, 1001])
    def test_simo_rows(self, spec, epsilon, n):
        # the rows of `SimoTailTable.log_q_l` at the converse's threshold and
        # at the receiver-side-information bound's, tau = epsilon / 10
        table = cv.SimoTailTable(spec, n, epsilon)
        delta = 2.0 * n * (1.0 + table.grid) / table.grid
        for gamma in (
            table.threshold(epsilon, "at_least", "lower"),
            table.threshold(0.9 * epsilon, "below", "upper"),
        ):
            x = table._thr_l(gamma)
            pos = x > 0.0
            self._assert_same_bits(x[pos], 2 * n, delta[pos])


class TestSampleNoncentralChi2:
    def test_central_case_moments(self):
        rng = np.random.default_rng(7)
        draws = sf.sample_noncentral_chi2(6, np.zeros(200_000), rng)
        assert np.mean(draws) == pytest.approx(6.0, abs=0.05)

    def test_mean_and_variance(self):
        rng = np.random.default_rng(8)
        draws = sf.sample_noncentral_chi2(4, np.full(1_000_000, 10.0), rng)
        assert np.mean(draws) == pytest.approx(14.0, abs=0.05)
        assert np.var(draws) == pytest.approx(48.0, abs=1.0)

    def test_distribution_matches_cdf(self):
        from scipy import stats

        rng = np.random.default_rng(9)
        draws = sf.sample_noncentral_chi2(10, np.full(100_000, 25.0), rng)
        ks = stats.kstest(draws, lambda v: stats.ncx2.cdf(v, 10, 25.0))
        assert ks.pvalue > 0.01

    @pytest.mark.parametrize("k, delta", [(2, 3.0), (10, 25.0), (40, 400.0)])
    def test_past_the_poisson_limit_matches_cdf(self, k, delta, monkeypatch):
        # with the limit lowered, every row takes (Z + sqrt(delta))^2 + chi2_{k-1}
        monkeypatch.setattr(sf, "_POISSON_LAM_MAX", 0.0)
        draws = sf.sample_noncentral_chi2(k, np.full(100_000, delta), np.random.default_rng(10 + k))
        ks = stats.kstest(draws, lambda v: stats.ncx2.cdf(v, k, delta))
        assert ks.pvalue > 0.01

    def test_past_the_poisson_limit_in_a_mixed_batch(self, monkeypatch):
        # the rows under the limit keep the mixture and the far rows take the
        # other form: each follows its own law
        monkeypatch.setattr(sf, "_POISSON_LAM_MAX", 1e3)
        draws = sf.sample_noncentral_chi2(4, np.tile([2.0, 3e3], 50_000), np.random.default_rng(11))
        for row, delta in ((0, 2.0), (1, 3e3)):
            assert stats.kstest(draws[row::2], lambda v: stats.ncx2.cdf(v, 4, delta)).pvalue > 0.01

    def test_past_the_poisson_limit_broadcasts(self):
        # scalar and broadcast k and delta, at a noncentrality numpy's
        # Poisson sampler refuses
        rng = np.random.default_rng(13)
        one = sf.sample_noncentral_chi2(4, 1e20, rng)
        assert one.shape == () and float(one) == pytest.approx(1e20, rel=1e-8)
        grid = sf.sample_noncentral_chi2(np.array([2, 4, 6]), np.array([[1e20], [1.0]]), rng)
        assert grid.shape == (2, 3) and np.all(np.isfinite(grid))
        np.testing.assert_allclose(grid[0], 1e20, rtol=1e-8)

    def test_under_the_poisson_limit_keeps_its_draws(self):
        # the Poisson mixture's draws, as before the far path existed
        k, delta = 6, np.array([0.0, 1.0, 30.0, 1e6])
        rng = np.random.default_rng(12)
        want = 2.0 * rng.standard_gamma(0.5 * k + rng.poisson(0.5 * delta))
        np.testing.assert_array_equal(sf.sample_noncentral_chi2(k, delta, np.random.default_rng(12)), want)


class TestGaussianQ:
    def test_at_zero(self):
        assert sf.gaussian_q(0.0) == pytest.approx(0.5, rel=1e-14)

    def test_symmetry(self):
        for x in (-3.2, -0.5, 1.7, 4.0):
            assert sf.gaussian_q(x) + sf.gaussian_q(-x) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_oracle(self):
        # high-precision inversion of Q via mpmath erfc
        target = mpmath.mpf("1e-3")
        x = mpmath.findroot(lambda v: mpmath.erfc(v / mpmath.sqrt(2)) / 2 - target, 3.0)
        assert sf.gaussian_q_inv(1e-3) == pytest.approx(float(x), rel=1e-10)
        assert sf.gaussian_q_inv(1e-3) == pytest.approx(3.09023, abs=1e-5)

    def test_roundtrip(self):
        # for x below about -5.7, Q(x) is within ~1e-8 of 1 and the double
        # representation of the probability itself limits the roundtrip to
        # ~2e-8 absolute; tighter accuracy there is unattainable
        for x in np.linspace(-6.0, 6.0, 25):
            tol = 1e-9 if x >= -5.5 else 1e-7
            assert sf.gaussian_q_inv(sf.gaussian_q(float(x))) == pytest.approx(
                float(x), abs=tol
            )

    def test_forward_roundtrip(self):
        for p in (1e-12, 1e-6, 1e-3, 0.3, 0.5, 0.9, 1 - 1e-6):
            assert sf.gaussian_q(sf.gaussian_q_inv(p)) == pytest.approx(p, rel=1e-12)

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            sf.gaussian_q_inv(0.0)
        with pytest.raises(DomainError):
            sf.gaussian_q_inv(1.0)


class TestHermitianEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(oracles.hermitian_eigenvalues(np.eye(3)), [1, 1, 1])

    def test_diagonal(self):
        np.testing.assert_allclose(
            oracles.hermitian_eigenvalues(np.diag([0.5, 2.0])), [2.0, 0.5]
        )

    def test_invariants_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = b + b.conj().T
            lam = oracles.hermitian_eigenvalues(a)
            assert np.all(np.diff(lam) <= 1e-12)
            assert np.sum(lam) == pytest.approx(np.trace(a).real, rel=1e-8)
            assert np.sum(lam**2) == pytest.approx(
                np.linalg.norm(a, "fro") ** 2, rel=1e-8
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            oracles.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _sin2_svd_oracle(a, b):
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    svals = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    k = min(a.shape[1], b.shape[1])
    return float(np.prod(1.0 - np.clip(svals[:k], 0, 1) ** 2))


class TestSubspaceSin2:
    def test_identical_subspace(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        assert oracles.subspace_sin2(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_columns(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        e2 = np.array([[0.0], [1.0], [0.0]])
        assert oracles.subspace_sin2(e1, e2) == pytest.approx(1.0, rel=1e-12)

    def test_svd_oracle_random(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        b = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        assert oracles.subspace_sin2(a, b) == pytest.approx(_sin2_svd_oracle(a, b), abs=1e-10)

    def test_rejects_rank_deficient(self):
        a = np.ones((5, 2))
        b = np.eye(5)[:, :2]
        with pytest.raises(DomainError):
            oracles.subspace_sin2(a, b)


class TestJointSubspaceIdentities:
    def test_determinant_factorization(self):
        # det([A1 A2]'[A1 A2]) = det(A1'A1) det(A2'A2) * product of squared sines
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(5, 12))
            k2 = int(rng.integers(1, n - 2))
            a1 = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            a2 = rng.standard_normal((n, k2)) + 1j * rng.standard_normal((n, k2))
            joint = np.concatenate([a1, a2], axis=1)
            if joint.shape[1] >= n:
                continue
            lhs = np.linalg.det(joint.conj().T @ joint).real
            rhs = (
                np.linalg.det(a1.conj().T @ a1).real
                * np.linalg.det(a2.conj().T @ a2).real
                * oracles.subspace_sin2(a1, a2)
            )
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_product_of_pairwise_sines_dominates(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = 9
            a = np.linalg.qr(rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))[0]
            b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            whole = oracles.subspace_sin2(a, b)
            per_col = 1.0
            for j in range(a.shape[1]):
                per_col *= oracles.subspace_sin2(a[:, j : j + 1], b)
            assert whole <= per_col + 1e-10
