"""Water-filling, capacity/dispersion, outage probability, epsilon-capacity."""

import itertools
import math

import numpy as np
import pytest

import oracles
from fbl import channel as ch
from fbl import cli
from fbl import mc
from fbl import outage as og
from fbl.config import db_to_linear
from fbl.errors import ConfigurationError, DomainError


def _waterfill_enumeration_oracle(lam, rho):
    """Try every active-set prefix; return the unique feasible allocation."""
    m = len(lam)
    for k in range(m, 0, -1):
        active = lam[:k]
        if np.any(active <= 0):
            continue
        gbar = (rho + np.sum(1.0 / active)) / k
        v = gbar - 1.0 / active
        if np.all(v > 0) and (k == m or gbar <= 1.0 / lam[k]):
            out = np.zeros(m)
            out[:k] = v
            return out, gbar
    return np.zeros(m), math.inf


class TestWaterFill:
    def test_single_mode(self):
        alloc = oracles.water_fill(np.array([0.7]), 2.0)
        np.testing.assert_allclose(alloc.v, [2.0])

    def test_equal_modes(self):
        alloc = oracles.water_fill(np.array([1.3, 1.3, 1.3]), 3.0)
        np.testing.assert_allclose(alloc.v, [1.0, 1.0, 1.0], atol=1e-12)

    def test_inactive_mode(self):
        alloc = oracles.water_fill(np.array([2.0, 0.5]), 1.0)
        assert alloc.gamma_bar == pytest.approx(1.5, rel=1e-12)
        np.testing.assert_allclose(alloc.v, [1.0, 0.0], atol=1e-12)

    def test_all_zero_is_outage_certain(self):
        alloc = oracles.water_fill(np.array([0.0, 0.0]), 1.0)
        assert alloc.outage_certain
        np.testing.assert_allclose(alloc.v, [0.0, 0.0])

    def test_power_budget_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            lam = np.sort(rng.exponential(1.0, m))[::-1]
            rho = float(rng.uniform(0.1, 10.0))
            alloc = oracles.water_fill(lam, rho)
            assert np.sum(alloc.v) == pytest.approx(rho, rel=1e-12)

    def test_active_set_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            m = int(rng.integers(1, 6))
            lam = np.sort(rng.exponential(1.0, m))[::-1]
            rho = float(rng.uniform(0.05, 20.0))
            alloc = oracles.water_fill(lam, rho)
            v_oracle, gbar_oracle = _waterfill_enumeration_oracle(lam, rho)
            np.testing.assert_allclose(alloc.v, v_oracle, atol=1e-10)
            assert alloc.gamma_bar == pytest.approx(gbar_oracle, rel=1e-10)

    def test_kkt_perturbation(self):
        # moving power between active modes never improves the objective
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(10_000):
            m = int(rng.integers(2, 5))
            lam = np.sort(rng.exponential(1.0, m))[::-1]
            alloc = oracles.water_fill(lam, float(rng.uniform(0.5, 8.0)))
            active = np.flatnonzero(alloc.v > 1e-9)
            if len(active) < 2:
                continue
            checked += 1
            base = np.sum(np.log1p(alloc.v * lam))
            for i, j in itertools.permutations(active[:2], 2):
                v = alloc.v.copy()
                if v[i] < 1e-4:
                    continue
                v[i] -= 1e-4
                v[j] += 1e-4
                assert np.sum(np.log1p(v * lam)) <= base + 1e-9
        assert checked > 100

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        lam = np.sort(rng.exponential(1.0, (100, 3)), axis=-1)[:, ::-1]
        v, gbar = og.water_fill_batch(lam, 2.0)
        for i in range(100):
            alloc = oracles.water_fill(lam[i], 2.0)
            np.testing.assert_allclose(v[i], alloc.v, atol=1e-12)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_batch_gives_the_bits_of_the_masked_form(self, m):
        # zero trailing modes, all-zero rows, gains too small for the water
        # to clear (1/lambda swallows rho) and rho from 1e-3 to 100
        rng = np.random.default_rng(40 + m)
        for rho in (1e-3, 0.1, 1.0, 10.0, 100.0):
            lam = np.sort(rng.exponential(1.0, (4000, m)) * 10.0 ** rng.uniform(-3, 2, (4000, 1)), axis=-1)[:, ::-1]
            zeros = rng.integers(0, m + 1, 4000)
            lam[np.arange(m) >= m - zeros[:, None]] = 0.0
            lam[::97] = 0.0
            lam[1::53] *= 1e-20
            got, want = og.water_fill_batch(lam, rho), oracles.masked_water_fill_batch(lam, rho)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("t, r", [(3, 2), (4, 1)])
    def test_mode_gains_fill_the_nonzero_modes_of_a_wide_gram(self, t, r):
        # t > r: the t - r zero eigenvalues of H H^H take no power, and the
        # gains are those of the min(t, r) nonzero modes
        spec = ch.ChannelSpec(t=t, r=r, snr=2.0, fading=ch.Rayleigh())
        got = og.mode_gains(spec, ch.WaterFill(), mc.rng(8, t), 200)
        assert got.shape == (200, min(t, r))
        h = ch.sample_channel(spec, mc.rng(8, t), 200)
        for i in range(200):
            lam = oracles.hermitian_eigenvalues(h[i] @ h[i].conj().T)[: min(t, r)]
            want = oracles.water_fill(lam, spec.snr).v * lam
            np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-12 * want[0])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            oracles.water_fill(np.array([0.5, 2.0]), 1.0)  # not descending
        with pytest.raises(DomainError):
            oracles.water_fill(np.array([1.0]), -1.0)


class TestCapacityDispersion:
    def test_unit_gain(self):
        c, v = og.capacity_dispersion(np.array([[1.0]]))
        assert c.shape == v.shape == (1,)
        assert c[0] == pytest.approx(math.log(2.0), rel=1e-12)
        assert v[0] == pytest.approx(0.75, rel=1e-12)

    def test_zero_gain(self):
        c, v = og.capacity_dispersion(np.array([[0.0, 0.0]]))
        assert c[0] == 0.0 and v[0] == 0.0

    def test_inactive_modes_do_not_count(self):
        c1, v1 = og.capacity_dispersion(np.array([[2.0]]))
        c2, v2 = og.capacity_dispersion(np.array([[2.0, 0.0]]))
        assert c1[0] == pytest.approx(c2[0]) and v1[0] == pytest.approx(v2[0])

    def test_isotropic_determinant_oracle(self):
        spec = ch.ChannelSpec(t=2, r=3, snr=db_to_linear(2.12), fading=ch.Rayleigh())
        h = ch.sample_channel(spec, mc.rng(5, 0), 20)
        lam = ch.effective_eigenvalues(h, ch.Isotropic(), spec)
        c, _ = og.capacity_dispersion(lam)
        q = (spec.snr / 2) * np.eye(2)
        for i in range(20):
            oracle = np.log(np.linalg.det(np.eye(2) + q @ h[i] @ h[i].conj().T)).real
            assert c[i] == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("t, r", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 3)])
    def test_isotropic_sampler_takes_the_log_det(self, t, r):
        # the same draws as the spectrum path, without the spectrum, at every rank
        for fading in (ch.Rayleigh(), ch.Rician(k_factor=5.0), ch.Nakagami(m_shape=0.7)):
            spec = ch.ChannelSpec(t=t, r=r, snr=2.0, fading=fading)
            got = og.capacity_sampler(spec, ch.Isotropic())(mc.rng(5, 1), 64)
            h = ch.sample_channel(spec, mc.rng(5, 1), 64)
            np.testing.assert_array_equal(got, ch.log_det_gram(h, spec.snr / spec.t))
            lam = ch.effective_eigenvalues(h, ch.Isotropic(), spec)
            spectrum = np.sum(np.log1p(lam), axis=-1)
            np.testing.assert_allclose(got, spectrum, rtol=1e-13)
            if spec.m == 1:
                # one mode: the same additions, so the spectrum's bits
                np.testing.assert_array_equal(got, spectrum)


class TestOutageProbability:
    spec = ch.ChannelSpec(
        t=1, r=2, snr=db_to_linear(-1.55), fading=ch.Rician(k_factor=db_to_linear(20.0))
    )
    cfg = mc.MCConfig(seed=6, samples=100_000)

    def test_rate_zero(self):
        p_hat, _ = og.outage_probability(self.spec, ch.WaterFill(), 0.0, self.cfg)
        assert p_hat == 0.0

    def test_huge_rate(self):
        p_hat, _ = og.outage_probability(self.spec, ch.WaterFill(), 1e6, self.cfg)
        assert p_hat == 1.0

    def test_published_operating_point(self):
        _, (lo, hi) = og.outage_probability(self.spec, ch.WaterFill(), math.log(2.0), self.cfg)
        assert lo <= 1.35e-3 and hi >= 0.75e-3

    def test_monotone_in_rate(self):
        rates = np.linspace(0.3, 1.2, 7)
        cis = [og.outage_probability(self.spec, ch.WaterFill(), float(r), self.cfg)[1] for r in rates]
        for (lo_a, _), (_, hi_b) in zip(cis, cis[1:]):
            assert hi_b >= lo_a

    def test_waterfill_dominates_isotropic(self):
        spec = ch.ChannelSpec(t=2, r=2, snr=2.0, fading=ch.Rayleigh())
        _, (wf_lo, _) = og.outage_probability(spec, ch.WaterFill(), 0.8, self.cfg)
        _, (_, iso_hi) = og.outage_probability(spec, ch.Isotropic(), 0.8, self.cfg)
        assert wf_lo <= iso_hi


class TestEpsilonCapacity:
    cfg = mc.MCConfig(seed=7, samples=200_000)

    def test_degenerate_fading_epsilon_independent(self):
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rician(k_factor=1e12))
        a, _ = og.epsilon_capacity(spec, ch.WaterFill(), 1e-3, self.cfg)
        b, _ = og.epsilon_capacity(spec, ch.WaterFill(), 0.3, self.cfg)
        assert a == pytest.approx(math.log(2.0), abs=1e-4)
        assert a == pytest.approx(b, abs=1e-4)

    def test_simo_rician_one_bit(self):
        spec = ch.ChannelSpec(
            t=1, r=2, snr=db_to_linear(-1.55), fading=ch.Rician(k_factor=db_to_linear(20.0))
        )
        value, _ = og.epsilon_capacity(spec, ch.WaterFill(), 1e-3, self.cfg)
        assert value / math.log(2.0) == pytest.approx(1.0, abs=0.01)

    def test_iso_rayleigh_one_bit(self):
        # the 2x3 epsilon-capacity is 1.0069 bits (1e7 draws), and the point
        # value scatters by about 0.012 bit at 2e5 draws: the row's interval
        # holds the value, and is narrower than 0.1 bit
        spec = ch.ChannelSpec(t=2, r=3, snr=db_to_linear(2.12), fading=ch.Rayleigh())
        _, (lo, hi) = og.epsilon_capacity(spec, ch.Isotropic(), 1e-3, self.cfg)
        assert lo / math.log(2.0) <= 1.0069 <= hi / math.log(2.0)
        assert (hi - lo) / math.log(2.0) < 0.1

    @pytest.mark.parametrize("epsilon", [1e-3, 0.1, 0.5])
    def test_value_inside_interval(self, epsilon):
        spec = ch.ChannelSpec(t=2, r=3, snr=db_to_linear(2.12), fading=ch.Rayleigh())
        value, (lo, hi) = og.epsilon_capacity(spec, ch.Isotropic(), epsilon, self.cfg)
        assert lo <= value <= hi
        assert lo < hi

    @pytest.mark.parametrize(
        "cov, row",
        [
            ("iso", "eps-capacity,100,1.45638833144,2.10112422337,1.42675210031,1.47444809689,estimate,1,20000"),
            ("waterfill", "eps-capacity,100,2.01073903387,2.90088323268,1.97578657212,2.0391500356,estimate,1,20000"),
        ],
    )
    def test_four_by_four_rows_pinned(self, cov, row, capsys):
        # m = 4: iso takes the LDL^H log-det and waterfill the eigvalsh
        # spectrum, each of the Gram that channel._gram builds
        argv = ["eps-capacity", "--t", "4", "--r", "4", "--snr-db", "0", "--cov", cov,
                "--samples", "20000", "--epsilon", "0.01"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == row

    def test_quantile_instability_guard(self):
        spec = ch.ChannelSpec(t=1, r=1, snr=1.0, fading=ch.Rayleigh())
        with pytest.raises(ConfigurationError):
            og.epsilon_capacity(spec, ch.WaterFill(), 1e-4, mc.MCConfig(seed=1, samples=1000))
