"""Fading models, channel sampling, and effective eigenvalues."""

import mpmath
import numpy as np
import pytest
from scipy import stats

import oracles
from fbl import channel as ch
from fbl import mc
from fbl import specfun as sf
from fbl.errors import DomainError


def _rng(i=0):
    return mc.rng(100, i)


class TestFadingModels:
    def test_rician_los_limit(self):
        spec = ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rician(k_factor=1e12))
        h = ch.sample_channel(spec, _rng(), 100)
        assert np.max(np.abs(h - 1.0)) < 1e-5

    def test_unit_mean_square_all_models(self):
        for fading in (ch.Rayleigh(), ch.Rician(k_factor=3.0), ch.Nakagami(m_shape=2.5)):
            spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=fading)
            h = ch.sample_channel(spec, _rng(1), 1_000_000)
            assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_nakagami_unit_shape_is_rayleigh(self):
        spec_n = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Nakagami(m_shape=1.0))
        spec_r = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rayleigh())
        a = np.abs(ch.sample_channel(spec_n, _rng(2), 50_000).ravel()) ** 2
        b = np.abs(ch.sample_channel(spec_r, _rng(3), 50_000).ravel()) ** 2
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_rayleigh_gaussianity(self):
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rayleigh())
        h = ch.sample_channel(spec, _rng(4), 50_000).ravel()
        assert stats.kstest(h.real, lambda v: stats.norm.cdf(v, scale=np.sqrt(0.5))).pvalue > 0.01
        assert stats.kstest(h.imag, lambda v: stats.norm.cdf(v, scale=np.sqrt(0.5))).pvalue > 0.01

    def test_rician_phase_rotation_invariance(self):
        # functionals of |entries| are invariant to a global LOS phase rotation
        spec = ch.ChannelSpec(t=1, r=2, snr=1.0, fading=ch.Rician(k_factor=10.0))
        h = ch.sample_channel(spec, _rng(5), 50_000)
        rotated = h * np.exp(1j * 0.7)
        a = np.sum(np.abs(h) ** 2, axis=(-2, -1))
        b = np.sum(np.abs(rotated) ** 2, axis=(-2, -1))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            ch.Rician(k_factor=-1.0)
        with pytest.raises(DomainError):
            ch.Nakagami(m_shape=0.2)
        with pytest.raises(DomainError):
            ch.ChannelSpec(t=0, r=1, snr=1.0, fading=ch.Rayleigh())
        with pytest.raises(DomainError):
            ch.ChannelSpec(t=1, r=1, snr=-2.0, fading=ch.Rayleigh())


class TestGainLaw:
    """`gain_law` is the law of |h|^2 that `sample_channel` draws (t = 1)."""

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize(
        "fading",
        [ch.Rayleigh(), ch.Rician(k_factor=100.0), ch.Rician(k_factor=0.5), ch.Nakagami(m_shape=0.7)],
        ids=["rayleigh", "rician-20db", "rician-3db", "nakagami"],
    )
    def test_ks_against_sample_channel(self, fading, r):
        spec = ch.ChannelSpec(t=1, r=r, snr=1.0, fading=fading)
        scale, dof, nc = ch.gain_law(spec)
        x = scale * np.sum(np.abs(ch.sample_channel(spec, _rng(30 + r), 20_000)) ** 2, axis=(-2, -1))
        assert stats.kstest(x, lambda v: sf.noncentral_chi2_cdf_sf(v, dof, nc)[0]).pvalue > 0.01
        # the scipy.stats law of the same parameters, as a referee of the CDF
        ref = stats.ncx2(dof, nc) if nc > 0.0 else stats.chi2(dof)
        v = np.quantile(x, [0.001, 0.5, 0.999])
        cdf, sf_ = sf.noncentral_chi2_cdf_sf(v, dof, nc)
        assert cdf == pytest.approx(ref.cdf(v), rel=1e-9)
        assert sf_ == pytest.approx(ref.sf(v), rel=1e-9)

    def test_unit_mean_gain(self):
        for fading in (ch.Rayleigh(), ch.Rician(k_factor=3.0), ch.Nakagami(m_shape=2.5)):
            scale, dof, nc = ch.gain_law(ch.ChannelSpec(t=1, r=3, snr=1.0, fading=fading))
            assert (dof + nc) / scale == pytest.approx(3.0, rel=1e-12)


class TestEffectiveEigenvalues:
    def test_isotropic_orthonormal_columns(self):
        spec = ch.ChannelSpec(t=2, r=4, snr=3.0, fading=ch.Rayleigh())
        base = np.linalg.qr(_rng(7).standard_normal((4, 2)))[0].T  # 2x4, orthonormal rows
        h = (2.0 * base)[None, :, :].astype(complex)
        lam = ch.effective_eigenvalues(h, ch.Isotropic(), spec)
        np.testing.assert_allclose(lam[0], (3.0 / 2.0) * 4.0 * np.ones(2), rtol=1e-10)

    def test_isotropic_determinant_oracle(self):
        spec = ch.ChannelSpec(t=2, r=3, snr=1.7, fading=ch.Rayleigh())
        h = ch.sample_channel(spec, _rng(8), 20)
        lam = ch.effective_eigenvalues(h, ch.Isotropic(), spec)
        q = (spec.snr / spec.t) * np.eye(2)
        for i in range(20):
            m = h[i].conj().T @ q @ h[i]
            lhs = np.log(np.linalg.det(np.eye(3) + m)).real
            rhs = np.sum(np.log1p(lam[i]))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_isotropic_smaller_gram_matches_full_product(self):
        # (rho/t) eig(H H^H) or (rho/t) eig(H^H H), whichever Gram is
        # min(t, r)-square, against the top eigenvalues of H^H Q H
        for t, r in ((1, 3), (2, 3), (3, 3), (3, 2), (4, 1)):
            spec = ch.ChannelSpec(t=t, r=r, snr=1.7, fading=ch.Rayleigh())
            h = ch.sample_channel(spec, _rng(11), 500)
            q = (spec.snr / t) * np.eye(t)
            full = np.linalg.eigvalsh(np.conj(np.swapaxes(h, -1, -2)) @ q @ h)[..., ::-1]
            full = full[..., : spec.m]
            got = ch.effective_eigenvalues(h, ch.Isotropic(), spec)
            assert got.shape == full.shape
            np.testing.assert_allclose(got, full, rtol=0.0, atol=1e-12 * float(np.max(full)))

    def test_ordering_and_nonnegativity(self):
        spec = ch.ChannelSpec(t=3, r=2, snr=1.0, fading=ch.Rayleigh())
        h = ch.sample_channel(spec, _rng(9), 10_000)
        for cov in (ch.WaterFill(), ch.Isotropic()):
            lam = ch.effective_eigenvalues(h, cov, spec)
            assert np.all(lam >= 0.0)
            assert np.all(np.diff(lam, axis=-1) <= 1e-12)

    def test_trace_identity(self):
        spec = ch.ChannelSpec(t=2, r=3, snr=2.5, fading=ch.Rayleigh())
        h = ch.sample_channel(spec, _rng(10), 100)
        q = (spec.snr / spec.t) * np.eye(2)
        lam = ch.effective_eigenvalues(h, ch.Isotropic(), spec)
        for i in range(100):
            tr = np.trace(h[i].conj().T @ q @ h[i]).real
            assert np.sum(lam[i]) == pytest.approx(tr, rel=1e-8)


def _gram(h):
    return h @ np.conj(np.swapaxes(h, -1, -2))


class TestGramEigenvalues:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_lapack_oracle_every_shape(self, t, r):
        spec = ch.ChannelSpec(t=t, r=r, snr=1.7, fading=ch.Rayleigh())
        h = ch.sample_channel(spec, _rng(20 + 4 * t + r), 200)
        small = h if t <= r else np.conj(np.swapaxes(h, -1, -2))
        for cov in (ch.WaterFill(), ch.Isotropic()):
            got = ch.effective_eigenvalues(h, cov, spec)
            assert got.shape == (200, min(t, r))
            for i in range(200):
                if isinstance(cov, ch.WaterFill):
                    # the leading min(t, r) eigenvalues of the t-square H H^H
                    want = oracles.hermitian_eigenvalues(_gram(h[i]))[: min(t, r)]
                else:
                    want = (1.7 / t) * oracles.hermitian_eigenvalues(_gram(small[i]))
                np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12 * want[0])

    def test_exact_zeros(self):
        x = np.array([1.0 + 2.0j, -0.5j, 3.0])
        # a zero row, a repeated row and an exact rank-1 outer product of
        # Gaussian integers: every 2 x 2 minor is exactly 0
        u = np.array([1.0 + 2.0j, 3.0 - 1.0j])
        v = np.array([2.0, 1.0j, -1.0 + 1.0j])
        for h in (np.stack([x, 0.0 * x]), np.stack([x, x]), np.stack([x, 2.0 * x]), np.outer(u, v)):
            lam = ch.gram_eigenvalues(h)
            assert lam[1] == 0.0
            assert lam[0] == pytest.approx(np.sum(np.abs(h) ** 2), rel=1e-15)
            assert ch.gram_eigenvalues(h.T)[1] == 0.0
        assert np.all(ch.gram_eigenvalues(np.zeros((5, 2, 3))) == 0.0)
        for t, r in ((3, 1), (1, 3), (4, 2)):
            spec = ch.ChannelSpec(t=t, r=r, snr=1.0, fading=ch.Rayleigh())
            h = ch.sample_channel(spec, _rng(40), 50)
            lam = ch.effective_eigenvalues(h, ch.WaterFill(), spec)
            assert lam.shape == (50, min(t, r))
            if min(t, r) == 1:
                np.testing.assert_allclose(lam[:, 0], np.sum(np.abs(h) ** 2, axis=(-2, -1)), rtol=1e-15)

    def test_near_rank_one_against_multiprecision(self):
        # lambda_2 / lambda_1 down to ~1e-14: LAPACK on the Gram loses the
        # small eigenvalue, the Cauchy-Binet determinant keeps it
        rng = _rng(41)
        worst = 0.0
        for scale in (1e-4, 1e-5, 1e-6, 1e-7):
            for _ in range(10):
                x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                c = rng.standard_normal() + 1j * rng.standard_normal()
                y = c * x + scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                h = np.stack([x, y])
                got = ch.gram_eigenvalues(h)
                with mpmath.workdps(60):
                    hm = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in h])
                    g = hm * hm.H
                    tr = mpmath.re(g[0, 0] + g[1, 1])
                    det = mpmath.re(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
                    lam2 = 2 * det / (tr + mpmath.sqrt(tr * tr - 4 * det))
                assert got[1] / got[0] < 1e-6
                worst = max(worst, abs(float((got[1] - lam2) / lam2)))
        assert worst < 1e-6

    def test_output_shapes(self):
        for t, r in ((1, 1), (2, 3), (3, 2), (3, 3)):
            m = min(t, r)
            h = _rng(42).standard_normal((4, 5, t, r)) + 0j
            assert ch.gram_eigenvalues(h[0, 0]).shape == (m,)
            assert ch.gram_eigenvalues(h[0]).shape == (5, m)
            stacked = ch.gram_eigenvalues(h)
            assert stacked.shape == (4, 5, m)
            np.testing.assert_array_equal(stacked[2, 3], ch.gram_eigenvalues(h[2, 3]))


def _log_det_oracle(h, spec):
    """sum log1p of (rho/t) times the LAPACK spectrum of the min(t, r)-square Gram."""
    small = h if spec.t <= spec.r else h.T
    lam = (spec.snr / spec.t) * oracles.hermitian_eigenvalues(_gram(small))
    return float(np.sum(np.log1p(np.clip(lam, 0.0, None))))


def _log_det_mpmath(h, spec):
    small = h if spec.t <= spec.r else h.T
    with mpmath.workdps(50):
        hm = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in small])
        a = mpmath.eye(hm.rows) + mpmath.mpf(spec.snr / spec.t) * (hm * hm.H)
        return float(mpmath.re(mpmath.log(mpmath.det(a))))


class TestIsotropicLogDet:
    SHAPES = [(t, r) for t in range(3, 7) for r in range(3, 7)] + [(8, 3)]
    FADINGS = (ch.Rayleigh(), ch.Rician(k_factor=5.0), ch.Nakagami(m_shape=0.7))

    @staticmethod
    def _stack(spec, seed):
        # Gaussian draws plus a zero row, a repeated row and an all-zero H
        h = ch.sample_channel(spec, _rng(seed), 12)
        h[0, 0, :] = 0.0
        h[1, 1, :] = h[1, 0, :]
        h[2] = 0.0
        if spec.t > spec.r:
            # the rows of the smaller Gram are the columns of H
            h[3, :, 0] = 0.0
            h[4, :, 1] = h[4, :, 0]
        return h

    @pytest.mark.parametrize("t, r", SHAPES)
    def test_matches_the_spectrum_oracle(self, t, r):
        for k, fading in enumerate(self.FADINGS):
            for snr_db in (-10.0, 0.0, 20.0, 40.0):
                spec = ch.ChannelSpec(t=t, r=r, snr=10.0 ** (snr_db / 10.0), fading=fading)
                h = self._stack(spec, 60 + 8 * t + r + k)
                got = ch.log_det_gram(h, spec.snr / spec.t)
                assert got.shape == (12,)
                assert got[2] == 0.0
                for i in (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11):
                    assert got[i] == pytest.approx(_log_det_oracle(h[i], spec), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t, r", SHAPES)
    def test_lowest_snr_against_multiprecision(self, t, r):
        # at -30 dB, C ~ trace(A): slogdet of I + A loses relative accuracy
        for k, fading in enumerate(self.FADINGS):
            spec = ch.ChannelSpec(t=t, r=r, snr=1e-3, fading=fading)
            h = self._stack(spec, 90 + 8 * t + r + k)[:6]
            got = ch.log_det_gram(h, spec.snr / spec.t)
            assert got[2] == 0.0
            for i in (0, 1, 3, 4, 5):
                assert got[i] == pytest.approx(_log_det_mpmath(h[i], spec), rel=1e-13, abs=0.0)


class TestRealArrayBits:
    """The real-array Gram, LDL^H and draws give the bits of their complex forms."""

    SHAPES = [(t, r) for t in range(1, 7) for r in range(1, 7)]
    FADINGS = (ch.Rayleigh(), ch.Rician(k_factor=5.0), ch.Nakagami(m_shape=0.7))

    @pytest.mark.parametrize("t, r", SHAPES)
    def test_log_det_and_spectrum_equal_the_einsum_forms(self, t, r):
        for k, fading in enumerate(self.FADINGS):
            spec = ch.ChannelSpec(t=t, r=r, snr=1.0, fading=fading)
            h = TestIsotropicLogDet._stack(spec, 300 + 8 * t + r + k) if min(t, r) >= 3 else (
                ch.sample_channel(spec, _rng(300 + 8 * t + r + k), 64))
            for scale in (1e-3, 1e-1, 1.0, 10.0, 100.0):
                np.testing.assert_array_equal(ch.log_det_gram(h, scale), oracles.einsum_log_det_gram(h, scale))
            if min(t, r) >= 3:
                np.testing.assert_array_equal(ch.gram_eigenvalues(h), oracles.einsum_gram_eigenvalues(h))

    @pytest.mark.parametrize("fading", FADINGS, ids=["rayleigh", "rician", "nakagami"])
    def test_draws_equal_the_sum_form(self, fading):
        for t, r in ((1, 2), (2, 3), (4, 4)):
            spec = ch.ChannelSpec(t=t, r=r, snr=1.0, fading=fading)
            np.testing.assert_array_equal(
                ch.sample_channel(spec, _rng(40 + t), 1000), oracles.sum_sample_channel(spec, _rng(40 + t), 1000)
            )
        np.testing.assert_array_equal(
            ch.complex_normal(_rng(50), (100, 2, 3)), oracles.sum_complex_normal(_rng(50), (100, 2, 3))
        )
