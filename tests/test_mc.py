"""Monte Carlo engine: determinism, confidence validity, quantile coverage."""

import ast
import math
import os
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats

import fbl
import oracles
from fbl import achievability as ach
from fbl import channel as ch
from fbl import converse as cv
from fbl import mc
from fbl import outage as og
from fbl.errors import ConfigurationError, ConvergenceError, DomainError


def uniform_sampler(rng, size):
    return rng.random(size)


def converse_gamma(monkeypatch, statistic_sampler, epsilon, cfg):
    """The threshold `converse_iso` takes as the upper epsilon-quantile of
    `statistic_sampler` at the configured confidence."""
    seen = []

    def tail_sampler(spec, n, gamma):
        seen.append(gamma)
        return lambda rng, size, lam: np.zeros(size)

    # both samplers are handed the chunk's channel gains, which these ignore
    monkeypatch.setattr(cv, "iso_statistic_sampler", lambda spec, n: lambda rng, size, lam: statistic_sampler(rng, size))
    monkeypatch.setattr(cv, "_iso_log_tail_sampler", tail_sampler)
    oracles.converse_iso_rate(ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rayleigh()), 10, epsilon, cfg)
    return seen[0]


class TestMCConfig:
    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ConfigurationError):
            mc.MCConfig(seed=1, samples=10)

    def test_rejects_large_delta(self):
        with pytest.raises(ConfigurationError):
            mc.MCConfig(seed=1, confidence_delta=0.5)


class TestRngStream:
    def test_reproducible(self):
        a = mc.rng(42, 7).random(5)
        b = mc.rng(42, 7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = mc.rng(42, 7).random(5)
        b = mc.rng(42, 8).random(5)
        assert not np.array_equal(a, b)


class TestDeterminismAcrossThreads:
    def test_bit_identical_for_any_thread_count(self, monkeypatch):
        monkeypatch.setattr(mc, "CHUNK", 1024)
        cfg = mc.MCConfig(seed=9, samples=50_000)
        results = []
        old = os.environ.get("FBL_THREADS")
        try:
            for threads in ("1", "2", "8"):
                os.environ["FBL_THREADS"] = threads
                results.append(mc.sample_values(uniform_sampler, cfg, 123))
        finally:
            if old is None:
                os.environ.pop("FBL_THREADS", None)
            else:
                os.environ["FBL_THREADS"] = old
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_chunking_boundary_exact(self):
        cfg = mc.MCConfig(seed=9, samples=10_000)
        vals = mc.sample_values(uniform_sampler, cfg, 0)
        assert vals.shape == (10_000,)

    def test_given_rows_reach_their_own_chunk(self, monkeypatch):
        # chunk i gets rows [4096 i, 4096 (i + 1)) of `given`, at any thread count
        cfg = mc.MCConfig(seed=9, samples=10_000)
        given = np.arange(10_000.0)

        def paired(rng, size, rows):
            assert rows.shape == (size,)
            return np.stack([rows, rng.random(size)], axis=-1)

        results = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("FBL_THREADS", threads)
            results.append(mc.sample_values(paired, cfg, 5, given))
        np.testing.assert_array_equal(results[0][:, 0], given)
        np.testing.assert_array_equal(results[0][:, 1], mc.sample_values(uniform_sampler, cfg, 5))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])
        with pytest.raises(DomainError):
            mc.sample_values(paired, cfg, 5, given[:-1])


class TestEstimateProbability:
    """A probability is a count of hits in `sample_values`, with two exact
    Clopper-Pearson ends at confidence_delta / 2; `outage.outage_probability`
    estimates one this way."""

    spec = ch.ChannelSpec(t=1, r=2, snr=1.0, fading=ch.Rayleigh())
    cfg = mc.MCConfig(seed=1, samples=1000, confidence_delta=0.01)

    def test_all_successes(self):
        p_hat, (lo, hi) = og.outage_probability(self.spec, ch.Isotropic(), 1e6, self.cfg)
        assert p_hat == 1.0
        assert hi == 1.0
        # exact all-successes lower endpoint: delta^(1/n) at half-budget
        assert lo == pytest.approx(0.005 ** (1 / 1000), rel=1e-9)

    def test_all_failures(self):
        p_hat, (lo, hi) = og.outage_probability(self.spec, ch.Isotropic(), 0.0, self.cfg)
        assert p_hat == 0.0
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.005 ** (1 / 1000), rel=1e-9)

    def test_fair_coin(self, monkeypatch):
        # C(H) uniform on (0, 1): outage at rate 0.5 is a fair coin
        monkeypatch.setattr(og, "capacity_sampler", lambda spec, cov: uniform_sampler)
        cfg = mc.MCConfig(seed=2, samples=1_000_000)
        p_hat, (lo, hi) = og.outage_probability(self.spec, ch.Isotropic(), 0.5, cfg)
        assert p_hat == pytest.approx(0.5, abs=0.002)
        width = hi - lo
        z = stats.norm.isf(0.0025)
        assert width == pytest.approx(2 * z * 5e-4, rel=0.1)

    @pytest.mark.parametrize("trials", [1, 7, 1000, 10**6])
    def test_point_estimate_inside_interval(self, trials):
        # whole and fractional hit counts, both extremes included
        counts = [0, 0.25, 0.5, 1, trials / 3, trials / 2, trials - 0.5, trials - 1, trials]
        for s in counts:
            for delta in (1e-9, 0.005, 0.025):
                assert mc.cp_lower(s, trials, delta) <= s / trials <= mc.cp_upper(s, trials, delta)

    @pytest.mark.parametrize("trials", [1, 7, 1000, 10**6])
    def test_ends_equal_the_scipy_stats_beta_quantiles(self, trials):
        # scipy.stats is the referee of the scipy.special calls, fractional counts included
        counts = [0.25, 0.5, 1, trials / 3, trials / 2, trials - 0.5, trials - 1]
        for s in [c for c in counts if 0 < c < trials]:
            for delta in (1e-9, 0.005, 0.025):
                assert mc.cp_lower(s, trials, delta) == pytest.approx(
                    stats.beta.ppf(delta, s, trials - s + 1), rel=1e-12, abs=1e-300
                )
                assert mc.cp_upper(s, trials, delta) == pytest.approx(
                    stats.beta.isf(delta, s + 1, trials - s), rel=1e-12
                )

    def test_ends_at_a_deep_delta(self):
        # here scipy.stats.beta.ppf returned 2.9e-18, where the incomplete
        # beta function is e^115 times delta: a lower end far too high
        s, trials, delta = 6.489555487169779, 117, 1.923280380061831e-154
        lo = mc.cp_lower(s, trials, delta)
        tail = mpmath.betainc(s, trials - s + 1, 0, lo, regularized=True)
        assert float(tail / delta) == pytest.approx(1.0, rel=1e-10)
        # where Boost cannot invert the beta law, each end falls back to its trivial value
        assert mc.cp_lower(2.160227334887046, 1192, 6.125257020681437e-291) == 0.0
        assert mc.cp_upper(157, 159, 5.870132119430124e-203) == 1.0

    def test_clopper_pearson_coverage(self):
        # 1000 synthetic repetitions with known p: empirical coverage >= 1 - delta
        p_true, n, delta = 0.03, 400, 0.05
        rng = np.random.default_rng(11)
        covered = 0
        for _ in range(1000):
            s = rng.binomial(n, p_true)
            lo = mc.cp_lower(s, n, delta / 2)
            hi = mc.cp_upper(s, n, delta / 2)
            covered += lo <= p_true <= hi
        assert covered / 1000 >= 1 - delta


class TestConservativeQuantile:
    def test_uniform_upper_median(self, monkeypatch):
        cfg = mc.MCConfig(seed=3, samples=100_000)
        v = converse_gamma(monkeypatch, uniform_sampler, 0.5, cfg)
        assert 0.5 <= v <= 0.51

    def test_degenerate(self, monkeypatch):
        cfg = mc.MCConfig(seed=3, samples=1000)
        v = converse_gamma(monkeypatch, lambda rng, size: np.full(size, 3.25), 0.9, cfg)
        assert v == 3.25

    def test_takes_the_kth_order_statistic(self, monkeypatch):
        # one chunk holding 1..N in random order: the k-th smallest value is k
        cfg = mc.MCConfig(seed=3, samples=1000)
        v = converse_gamma(monkeypatch, lambda rng, size: rng.permutation(size) + 1.0, 0.9, cfg)
        assert v == mc.quantile_order_indices(1000, 0.9, "upper", 0.5 * cfg.confidence_delta)

    def test_infeasible_target(self):
        with pytest.raises(ConfigurationError):
            mc.quantile_order_indices(100, 0.999, "upper", 0.01)

    @pytest.mark.parametrize("n", [100, 1000, 10**5, 10**7])
    @pytest.mark.parametrize("target", [1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999, 1 - 1e-6])
    @pytest.mark.parametrize("delta", [1e-300, 1e-12, 1e-6, 0.005, 0.05])
    def test_index_is_the_extreme_one_meeting_its_inequality(self, n, target, delta):
        # scipy.stats.binom is the referee: k meets its inequality and the
        # next index outward does not, or no index of [1, n] meets it
        def upper_tail(k):  # P[Bin >= k]
            return stats.binom.sf(k - 1, n, target)

        def lower_tail(k):  # P[Bin <= k - 1]
            return stats.binom.cdf(k - 1, n, target)

        try:
            k = mc.quantile_order_indices(n, target, "upper", delta)
        except ConfigurationError:
            assert upper_tail(n) > delta
        else:
            assert 1 <= k <= n and upper_tail(k) <= delta
            assert k == 1 or upper_tail(k - 1) > delta
        try:
            k = mc.quantile_order_indices(n, target, "lower", delta)
        except ConfigurationError:
            assert lower_tail(1) > delta
        else:
            assert 1 <= k <= n and lower_tail(k) <= delta
            assert k == n or lower_tail(k + 1) > delta

    def test_upper_coverage_guarantee(self):
        # exact binomial property, plus an empirical check with sampling slack
        n, target, delta = 2000, 0.9, 0.05
        k = mc.quantile_order_indices(n, target, "upper", delta)
        assert stats.binom.sf(k - 1, n, target) <= delta
        rng = np.random.default_rng(12)
        good = 0
        for _ in range(500):
            x = np.sort(rng.random(n))
            good += x[k - 1] >= target  # true CDF of U(0,1) at x is x itself
        assert good / 500 >= 1 - delta - 0.03

    def test_lower_coverage_guarantee(self):
        n, target, delta = 2000, 0.1, 0.05
        k = mc.quantile_order_indices(n, target, "lower", delta)
        assert stats.binom.cdf(k - 1, n, target) <= delta
        rng = np.random.default_rng(13)
        good = 0
        for _ in range(500):
            x = np.sort(rng.random(n))
            good += x[k - 1] <= target
        assert good / 500 >= 1 - delta - 0.03


class TestRootFindMonotone:
    def test_identity(self):
        for side in ("at_least", "below"):
            got = mc.root_find_monotone(lambda x: x, 0.3, (0.0, 1.0), side)
            assert got == pytest.approx(0.3, abs=1e-12)

    def test_shifted_cdf(self):
        from fbl import specfun as sf

        for side in ("at_least", "below"):
            got = mc.root_find_monotone(lambda x: sf.gaussian_q(-x), 0.5, (-5.0, 5.0), side)
            assert got == pytest.approx(0.0, abs=1e-8)

    def test_empirical_cdf_matches_sorted_quantile(self):
        rng = np.random.default_rng(14)
        sample = np.sort(rng.random(10_000))

        def ecdf(x):
            return np.searchsorted(sample, x, side="right") / sample.size

        oracle = sample[int(0.25 * sample.size) - 1]
        got = mc.root_find_monotone(ecdf, 0.25, (0.0, 1.0), "at_least")
        assert ecdf(got) >= 0.25
        assert 0.0 <= got - oracle <= 1e-12
        got = mc.root_find_monotone(ecdf, 0.25, (0.0, 1.0), "below")
        assert ecdf(got) <= 0.25
        assert sample[int(0.25 * sample.size)] - got <= 1e-12

    def test_bracket_violation(self):
        with pytest.raises(DomainError):
            mc.root_find_monotone(lambda x: x, 2.0, (0.0, 1.0), "at_least")
        with pytest.raises(DomainError):
            mc.root_find_monotone(lambda x: x, -1.0, (0.0, 1.0), "below")

    @pytest.mark.parametrize("target", [0.5, 1.0])
    def test_step_function_at_least(self, target):
        def step(x):
            return 1.0 if x >= 0.3 else 0.0

        got = mc.root_find_monotone(step, target, (0.0, 1.0), "at_least")
        assert step(got) >= target
        assert 0.0 <= got - 0.3 <= 1e-12

    @pytest.mark.parametrize("target", [0.0, 0.5])
    def test_step_function_below(self, target):
        def step(x):
            return 1.0 if x >= 0.3 else 0.0

        got = mc.root_find_monotone(step, target, (0.0, 1.0), "below")
        assert step(got) <= target
        assert 0.0 < 0.3 - got <= 1e-12

    def test_ends_returned_when_already_satisfied(self):
        assert mc.root_find_monotone(lambda x: x, -1.0, (0.0, 1.0), "at_least") == 0.0
        assert mc.root_find_monotone(lambda x: x, 2.0, (0.0, 1.0), "below") == 1.0

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            mc.root_find_monotone(lambda x: x, 0.3, (0.0, 1.0), "at_least", max_iter=5)

    def test_unknown_side(self):
        with pytest.raises(DomainError):
            mc.root_find_monotone(lambda x: x, 0.3, (0.0, 1.0), "nearest")

    def test_only_root_finder_in_the_package(self):
        # every threshold search of fbl goes through root_find_monotone
        found = []
        for path in sorted(Path(fbl.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module is not None:
                    names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                found += [(path.name, name) for name in names if name.startswith("scipy.optimize")]
        assert found == []


class TestLogMeanBound:
    def test_ordering_and_consistency(self):
        # the lower side only: the first value is the log of the sample
        # mean, the second lies below it
        rng = np.random.default_rng(15)
        logs = -rng.exponential(2.0, 10_000) - 50.0
        m, lo = mc.log_mean_bound(logs, 0.005)
        assert lo <= m
        direct = math.log(np.mean(np.exp(logs + 50.0))) - 50.0
        assert m == pytest.approx(direct, abs=1e-10)

    def test_lower_stays_finite_with_dominant_sample(self):
        # one sample carrying nearly all mass must not collapse the lower bound
        logs = np.full(10_000, -800.0)
        logs[0] = -700.0
        m, lo = mc.log_mean_bound(logs, 0.005)
        assert np.isfinite(lo)
        # Markov fallback: mean * delta/2 is always valid
        assert lo >= m + math.log(0.0025) - 1e-9

    def test_all_minus_inf(self):
        m, lo = mc.log_mean_bound(np.full(100, -np.inf), 0.005)
        assert m == -np.inf and lo == -np.inf

    def test_markov_coverage(self):
        # lower bound <= true mean in >= 1-delta of repetitions (heavy-tailed case)
        rng = np.random.default_rng(16)
        delta = 0.05
        mu, sig = -0.5, 1.0
        true_mean = math.exp(mu + sig**2 / 2)
        ok = 0
        for _ in range(400):
            x = rng.lognormal(mu, sig, 2000)
            _, lo = mc.log_mean_bound(np.log(x), delta)
            ok += math.exp(lo) <= true_mean
        assert ok / 400 >= 1 - delta


class TestSubstreamIndex:
    def test_deterministic_and_distinct(self):
        a = mc.substream_index(3, 100)
        assert a == mc.substream_index(3, 100)
        assert a != mc.substream_index(3, 101)
        assert a != mc.substream_index(4, 100)


class TestConfidenceBudget:
    """The confidence steps that one reported rate rests on spend at most
    cfg.confidence_delta in total (union bound over the steps). A step is an
    order statistic, a log-mean bound, or a threshold search, however many
    Clopper-Pearson evaluations the search makes; a plug-in value spends
    nothing."""

    cfg = mc.MCConfig(seed=3, samples=20_000)
    simo = ch.ChannelSpec(t=1, r=2, snr=1.0, fading=ch.Rayleigh())
    mimo = ch.ChannelSpec(t=2, r=2, snr=1.0, fading=ch.Rayleigh())

    @staticmethod
    def spent(monkeypatch, call):
        """The level of each confidence step that `call()` takes, in order."""
        steps = []
        search = []  # the level of the threshold search under way

        def searching(*args, **kwargs):
            search.clear()
            try:
                return root_find(*args, **kwargs)
            finally:
                search.clear()

        def per_search(fn):
            def wrapped(successes, trials, delta):
                if not search:
                    search.append(delta)
                    steps.append(delta)
                assert search == [delta], "one level per threshold search"
                return fn(successes, trials, delta)

            return wrapped

        def per_call(fn, at):
            def wrapped(*args):
                steps.append(args[at])
                return fn(*args)

            return wrapped

        root_find = mc.root_find_monotone
        monkeypatch.setattr(mc, "root_find_monotone", searching)
        monkeypatch.setattr(mc, "cp_lower", per_search(mc.cp_lower))
        monkeypatch.setattr(mc, "cp_upper", per_search(mc.cp_upper))
        monkeypatch.setattr(mc, "quantile_order_indices", per_call(mc.quantile_order_indices, 3))
        monkeypatch.setattr(mc, "log_mean_bound", per_call(mc.log_mean_bound, 1))
        call()
        return steps

    @pytest.mark.parametrize(
        "bound, n_steps",
        [
            (lambda s: oracles.converse_iso_rate(s.mimo, 30, 1e-2, s.cfg), 2),
            # the t = 1 bounds are quadratures over the gain law: no steps
            (lambda s: cv.converse_simo(s.simo, 300, 1e-2), 0),
            # the default tau grid at n = 300, eps = 1e-2 has three points
            (lambda s: oracles.kappa_beta_rate(s.simo, ch.WaterFill(), 300, 1e-2, None, s.cfg), 3),
            (lambda s: oracles.kappa_beta_rate(s.simo, ch.WaterFill(), 300, 1e-2, 5e-3, s.cfg), 1),
            (lambda s: oracles.kappa_beta_rate(s.mimo, ch.Isotropic(), 300, 1e-2, None, s.cfg), 3),
            (lambda s: ach.csir_kappa_beta_simo(s.simo, 300, 1e-2, None), 0),
            (lambda s: ach.csir_kappa_beta_simo(s.simo, 300, 1e-2, 5e-3), 0),
        ],
        ids=["conv-iso", "conv-simo", "ach-simo-grid", "ach-simo-tau", "ach-nocsi-grid",
             "ach-csir-kb-grid", "ach-csir-kb-tau"],
    )
    def test_steps_sum_to_at_most_delta(self, monkeypatch, bound, n_steps):
        steps = self.spent(monkeypatch, lambda: bound(self))
        assert len(steps) == n_steps
        assert sum(steps) <= self.cfg.confidence_delta * (1.0 + 1e-12), steps

    @pytest.mark.parametrize("dominant", [False, True], ids=["normal", "markov"])
    def test_log_mean_bound_spends_the_delta_it_is_passed(self, dominant):
        # the bound is the larger of a normal and a Markov bound, each at
        # delta / 2: the larger holds when both do, so it spends delta, the
        # level the step above records
        delta = 0.01
        logs = -np.random.default_rng(17).exponential(1.0, 6400)
        if dominant:
            logs[0] = 30.0  # one sample carries the mean: Markov wins
        w = np.exp(logs)
        mean = float(np.mean(w))
        se = float(np.std(np.mean(w.reshape(64, 100), axis=1), ddof=1) / 8.0)
        normal = mean - float(stats.norm.isf(0.5 * delta)) * se
        markov = 0.5 * delta * mean
        assert (markov > normal) == dominant
        _, lo = mc.log_mean_bound(logs, delta)
        assert lo == pytest.approx(math.log(max(normal, markov)), rel=1e-12)
