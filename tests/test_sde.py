import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcoupling import qdist, qseq, sde
from qcoupling.errors import (
    DomainError,
    InstabilityError,
    InsufficientDataError,
)


def force_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _reference_samples(cfg):
    # reference: the ensemble draws all of its noise at once, step-major,
    # and the step arithmetic is the same, so the samples are bitwise equal
    growth = 1.0 - (cfg.tau - cfg.M) * cfg.dt
    mul2 = 2.0 * cfg.M * cfg.dt
    add2 = 2.0 * cfg.A * cfg.dt
    noise = np.random.default_rng(cfg.seed).standard_normal(
        (cfg.steps, cfg.n_paths))
    x = np.zeros(cfg.n_paths)
    kept = []
    for j in range(cfg.steps):
        x = x * growth + np.sqrt((x * x) * mul2 + add2) * noise[j]
        if j + 1 >= cfg.burn_in and (j + 1 - cfg.burn_in) % cfg.stride == 0:
            kept.append(x)
    return np.stack(kept, axis=1).ravel()


def _two_normal_state(cfg, seed):
    # the ensemble after burn_in two-normal Euler-Maruyama steps
    # x + d x + m x N0 + a N1
    drift = -(cfg.tau - cfg.M) * cfg.dt
    mul = math.sqrt(2.0 * cfg.M * cfg.dt)
    add = math.sqrt(2.0 * cfg.A * cfg.dt)
    rng = np.random.default_rng(seed)
    x = np.zeros(cfg.n_paths)
    for _ in range(cfg.burn_in):
        n0, n1 = rng.standard_normal((2, cfg.n_paths))
        x = x + drift * x + mul * x * n0 + add * n1
    return x


@pytest.fixture(scope="module")
def headline_run():
    # reference parameters: predicted stationary law has q = -0.5, beta = 1
    cfg = sde.SdeConfig(M=0.25, A=0.5, tau=0.75, seed=7)
    return cfg, sde.simulate(cfg)


class TestPrediction:
    def test_reference_parameters(self):
        pred = sde.predicted_stationary(0.25, 0.75, 0.5)
        assert pred.q == pytest.approx(-0.5, abs=1e-15)
        assert pred.beta == pytest.approx(1.0, abs=1e-15)
        assert pred.q_hat == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_additive_only_recovers_gaussian(self):
        pred = sde.predicted_stationary(0.0, 1.0, 0.25)
        assert pred.q == 0.0
        assert pred.beta == pytest.approx(2.0)
        assert pred.q_hat == 0.0

    def test_equal_rates_hit_coupling_minus_one(self):
        pred = sde.predicted_stationary(0.6, 0.6, 1.0)
        assert pred.q == pytest.approx(-1.0)
        assert pred.q_hat == pytest.approx(2.0)

    def test_q_hat_is_conjugate_of_q(self):
        for m, tau in [(0.1, 1.0), (0.25, 0.75), (1.3, 0.4), (0.0, 2.0)]:
            pred = sde.predicted_stationary(m, tau, 1.0)
            assert qseq.conj_hat(pred.q) == pytest.approx(pred.q_hat, abs=1e-14)

    def test_q_range(self):
        for m in [0.0, 0.1, 1.0, 50.0]:
            pred = sde.predicted_stationary(m, 0.5, 1.0)
            assert -2.0 < pred.q <= 0.0
            assert pred.beta > 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            sde.predicted_stationary(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            sde.predicted_stationary(0.1, 0.0, 1.0)
        with pytest.raises(DomainError):
            sde.predicted_stationary(0.1, 1.0, -1.0)


class TestFpCoefficients:
    def test_linear_example(self):
        J, D = sde.fp_coefficients(0.5, 1.0, 0.5, 2.0)
        assert J == pytest.approx(-1.0)
        assert D == pytest.approx(0.5 + 0.5 * 4.0)

    def test_equal_rates_kill_drift(self):
        J, D = sde.fp_coefficients(0.7, 0.7, 0.3, 1.7)
        assert J == 0.0
        assert D == pytest.approx(0.3 + 0.7 * 1.7 ** 2)

    @given(
        m=st.floats(0.0, 5.0),
        tau=st.floats(0.01, 5.0),
        x=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_drift_forms_agree(self, m, tau, x):
        # bare drift plus noise-induced piece vs the rescaled bare drift
        J, _ = sde.fp_coefficients(m, tau, 1.0, x)
        f = -tau * x
        assert J == pytest.approx(f + m * x, abs=1e-12 * (1.0 + abs(f)))
        assert J == pytest.approx(f * (1.0 - m / tau), abs=1e-12 * (1.0 + abs(f)))

    def test_custom_g(self):
        J, D = sde.fp_coefficients(
            0.5, 2.0, 1.0, 0.3, g=math.sin, gprime=math.cos)
        assert J == pytest.approx(-1.5 * math.sin(0.3) * math.cos(0.3))
        assert D == pytest.approx(1.0 + 0.5 * math.sin(0.3) ** 2)

    def test_gprime_required_with_custom_g(self):
        with pytest.raises(DomainError):
            sde.fp_coefficients(0.5, 1.0, 1.0, 0.3, g=math.sin)


class TestConfig:
    def test_defaults(self):
        cfg = sde.SdeConfig()
        assert cfg.burn_in == math.ceil(10.0 / (cfg.tau * cfg.dt))
        assert cfg.stride == math.ceil(1.0 / (cfg.tau * cfg.dt))
        assert cfg.n_paths * cfg.samples_per_path >= 100_000

    def test_explicit_burn_in_kept(self):
        cfg = sde.SdeConfig(burn_in=50, steps=1000)
        assert cfg.burn_in == 50

    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.2, tau=1.0),
        dict(dt=-0.01),
        dict(M=-1.0),
        dict(A=0.0),
        dict(tau=-2.0),
        dict(steps=0),
        dict(n_paths=0),
        dict(steps=100, burn_in=100),
        dict(g="cubic"),
        dict(n_paths=3.0, steps=100, burn_in=10),
        dict(burn_in=5.5, steps=100),
        dict(steps=True, burn_in=0),
        dict(n_paths=True, steps=100, burn_in=10),
        dict(burn_in=True, steps=100),
        dict(seed=-1),
        dict(seed=True),
        dict(seed=2.0),
        dict(dt=1e-320),
        dict(dt=5e-324, tau=0.5, burn_in=0),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(DomainError):
            sde.SdeConfig(**kwargs)


class TestSimulate:
    def test_deterministic_per_seed(self):
        cfg = dict(steps=2000, n_paths=16, burn_in=100)
        a = sde.simulate(sde.SdeConfig(seed=42, **cfg))
        b = sde.simulate(sde.SdeConfig(seed=42, **cfg))
        c = sde.simulate(sde.SdeConfig(seed=43, **cfg))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("block", [4096, 64])
    def test_blocked_noise_matches_whole_run_draws(self, monkeypatch, block):
        # a whole-run block and a 64-step block
        cfg = sde.SdeConfig(steps=300, n_paths=5, burn_in=37, seed=11)
        monkeypatch.setattr(sde, "_NOISE_VALUES", 2 * block * cfg.n_paths)
        assert np.array_equal(sde.simulate(cfg), _reference_samples(cfg))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_paths", [37, 389])
    def test_partial_blocks_and_tiles_match_whole_run_draws(
            self, monkeypatch, n_paths, workers):
        # 40-step blocks leave a 20-step last block, under any core count
        cfg = sde.SdeConfig(steps=300, n_paths=n_paths, burn_in=37, seed=5)
        monkeypatch.setattr(sde, "_NOISE_VALUES", 2 * 40 * cfg.n_paths)
        force_cpus(monkeypatch, workers)
        assert np.array_equal(sde.simulate(cfg), _reference_samples(cfg))

    @pytest.mark.parametrize("M", [0.6, 0.0])
    def test_one_normal_step_has_the_two_normal_law(self, M):
        # given x both steps are Normal(x (1 + d), m^2 x^2 + a^2), so the
        # chains agree in law at every step; one sample per path, at step 39
        from scipy.stats import ks_2samp

        cfg = sde.SdeConfig(M=M, A=0.5, tau=0.75, dt=0.05, steps=40,
                            burn_in=39, n_paths=50_000, seed=21)
        assert cfg.samples_per_path == 1
        one = sde.simulate(cfg)
        two = _two_normal_state(cfg, seed=22)
        assert ks_2samp(one, two).pvalue > 1e-3

    def test_traced_peak_memory_is_bounded(self):
        # the two noise blocks hold _NOISE_VALUES values together
        # whatever the path count; one whole-run block alone is 60 MiB
        cfg = sde.SdeConfig(n_paths=5000, steps=1500, seed=2)
        tracemalloc.start()
        try:
            sde.simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_output_shape(self, headline_run):
        cfg, xs = headline_run
        assert xs.shape == (cfg.n_paths * cfg.samples_per_path,)
        assert xs.size >= 100_000
        assert np.isfinite(xs).all()

    def test_additive_only_variance(self):
        # Ornstein-Uhlenbeck control: stationary variance A / tau
        cfg = sde.SdeConfig(M=0.0, tau=1.0, A=0.5, seed=3)
        xs = sde.simulate(cfg)
        assert xs.size >= 100_000
        assert xs.var() == pytest.approx(0.5, rel=0.05)
        assert xs.mean() == pytest.approx(0.0, abs=0.05)

    def test_histogram_matches_prediction(self, headline_run):
        cfg, xs = headline_run
        pred = sde.predicted_stationary(cfg.M, cfg.tau, cfg.A)
        dist = qdist.QGaussian(pred.q, 0.0, 1.0 / ((2.0 + pred.q) * pred.beta))
        hist, edges = np.histogram(xs, bins=200, range=(-20.0, 20.0),
                                   density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        # histogram density renormalizes to the in-range mass
        inside = np.mean(np.abs(xs) <= 20.0)
        dev = np.abs(hist * inside - qdist.qgaussian_pdf(dist, mids))
        assert dev.max() <= 0.02

    def test_instability_raised(self):
        cfg = sde.SdeConfig(M=20.0, tau=1.0, A=0.5, dt=0.05, steps=5000,
                            n_paths=8, burn_in=10, seed=1)
        with pytest.raises(InstabilityError):
            sde.simulate(cfg)

    @pytest.mark.parametrize("n_paths", [5, 1])
    def test_samples_do_not_depend_on_worker_count(self, monkeypatch, n_paths):
        monkeypatch.setattr(sde, "_NOISE_VALUES", 2 * 64 * n_paths)
        cfg = sde.SdeConfig(steps=300, n_paths=n_paths, burn_in=37, seed=11)
        runs = []
        for workers in (1, 2, 3):
            force_cpus(monkeypatch, workers)
            runs.append(sde.simulate(cfg))
        for run in runs[1:]:
            assert np.array_equal(run, runs[0])

    def test_instability_leaves_no_worker_thread(self, monkeypatch):
        # 64-step blocks: the run blows up at the end of the first block,
        # while the draw of the second is pending
        monkeypatch.setattr(sde, "_NOISE_VALUES", 2 * 64 * 8)
        force_cpus(monkeypatch, 3)
        cfg = sde.SdeConfig(M=20.0, tau=1.0, A=0.5, dt=0.05, steps=5000,
                            n_paths=8, burn_in=10, seed=1)
        before = threading.active_count()
        with pytest.raises(InstabilityError):
            sde.simulate(cfg)
        assert threading.active_count() == before

    def test_noise_failure_reaches_caller(self, monkeypatch):
        # 64-step blocks: the run makes five draws on the helper thread;
        # the first fails, then in a second run the third
        real_rng = np.random.default_rng

        class Failing:
            def __init__(self, seed):
                self.rng, self.draws = real_rng(seed), 0

            def standard_normal(self, out):
                self.draws += 1
                if self.draws == failing_draw:
                    raise RuntimeError("draw failed")
                return self.rng.standard_normal(out=out)

        for failing_draw in (1, 3):
            monkeypatch.setattr(sde, "_NOISE_VALUES", 2 * 64 * 5)
            monkeypatch.setattr(np.random, "default_rng", Failing)
            before = threading.active_count()
            with pytest.raises(RuntimeError, match="draw failed"):
                sde.simulate(sde.SdeConfig(steps=300, n_paths=5, burn_in=37))
            assert threading.active_count() == before


class TestFit:
    def test_recovers_heavy_tail_sampler(self):
        dist = qdist.QGaussian(-0.5)
        xs = qdist.sample_qgaussian(dist, 100_000, seed=11)
        rep = sde.fit_qgaussian(xs)
        assert -0.55 <= rep.q_est <= -0.45
        assert rep.beta_est == pytest.approx(dist.beta, rel=0.05)
        assert rep.mu_est == pytest.approx(0.0, abs=0.05)
        assert rep.converged
        assert rep.n == 100_000

    def test_recovers_gaussian(self):
        xs = np.random.default_rng(5).standard_normal(100_000)
        rep = sde.fit_qgaussian(xs)
        assert -0.05 <= rep.q_est <= 0.05
        assert rep.beta_est == pytest.approx(0.5, rel=0.05)
        assert rep.converged

    def test_recovers_compact_support(self):
        dist = qdist.QGaussian(1.0)
        xs = qdist.sample_qgaussian(dist, 50_000, seed=9)
        rep = sde.fit_qgaussian(xs)
        assert rep.q_est == pytest.approx(1.0, abs=0.1)
        assert rep.beta_est == pytest.approx(dist.beta, rel=0.1)

    def test_location_shift(self):
        xs = qdist.sample_qgaussian(qdist.QGaussian(-0.5), 50_000, seed=2)
        rep = sde.fit_qgaussian(xs + 3.0)
        assert rep.mu_est == pytest.approx(3.0, abs=0.05)

    def test_loglik_is_the_model_loglik(self):
        xs = np.random.default_rng(1).standard_normal(2000)
        rep = sde.fit_qgaussian(xs)
        dist = qdist.QGaussian(
            rep.q_est, rep.mu_est,
            1.0 / ((2.0 + rep.q_est) * rep.beta_est))
        direct = np.log(qdist.qgaussian_pdf(dist, xs)).sum()
        assert rep.loglik == pytest.approx(direct, rel=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            sde.fit_qgaussian(np.zeros(500))

    def test_degenerate_samples(self):
        with pytest.raises(DomainError):
            sde.fit_qgaussian(np.ones(2000))
        bad = np.zeros(2000)
        bad[7] = np.inf
        with pytest.raises(DomainError):
            sde.fit_qgaussian(bad)


class TestNelderMead:
    """The simplex search against scipy's, kept as the test oracle."""

    @staticmethod
    def _scipy(fn, x0, args=(), maxfev=10_000):
        from scipy.optimize import minimize

        return minimize(fn, x0, args=args, method="Nelder-Mead",
                        options=dict(fatol=1e-8, xatol=1e-6, maxfev=maxfev,
                                     maxiter=10_000))

    @pytest.mark.parametrize("max_evals", [10_000, 60])
    def test_same_steps_as_scipy(self, max_evals):
        calls = []

        def rosen(th):
            calls.append(1)
            return float(100.0 * (th[1] - th[0] ** 2) ** 2
                         + (1.0 - th[0]) ** 2 + th[2] ** 2)

        x, fun, done = sde._nelder_mead(rosen, [-1.2, 1.0, 0.0],
                                        max_evals=max_evals)
        evals = len(calls)
        res = self._scipy(rosen, [-1.2, 1.0, 0.0], maxfev=max_evals)
        assert np.array_equal(x, res.x)
        assert fun == res.fun
        assert evals == res.nfev
        assert done == res.success

    @pytest.mark.parametrize("source", ["headline", "heavy", "gaussian",
                                        "compact"])
    def test_fit_matches_scipy(self, headline_run, source):
        if source == "headline":
            xs = headline_run[1]
        elif source == "gaussian":
            xs = np.random.default_rng(5).standard_normal(100_000)
        else:
            q, seed = (-0.5, 11) if source == "heavy" else (1.0, 9)
            xs = qdist.sample_qgaussian(qdist.QGaussian(q), 50_000, seed=seed)
        rep = sde.fit_qgaussian(xs)
        res = self._scipy(sde._neg_loglik, sde._initial_guess(xs), args=(xs,))
        q, mu, lnb = res.x
        want = (q, math.exp(lnb), mu, -res.fun)
        np.testing.assert_allclose(rep[:4], want, rtol=1e-8, atol=1e-8)
        assert rep.n == xs.size
        assert rep.converged == (res.success and res.fun < sde._PENALTY)


class TestEndToEnd:
    def test_recovers_predicted_law(self, headline_run):
        cfg, xs = headline_run
        pred = sde.predicted_stationary(cfg.M, cfg.tau, cfg.A)
        rep = sde.fit_qgaussian(xs)
        assert abs(rep.q_est - pred.q) <= 0.15
        assert abs(rep.beta_est - pred.beta) <= 0.2
        assert rep.converged

    def test_fitted_conjugate_matches_prediction(self, headline_run):
        cfg, xs = headline_run
        rep = sde.fit_qgaussian(xs)
        assert qseq.conj_hat(rep.q_est) == pytest.approx(2.0 / 3.0, abs=0.1)

    def test_no_seed_bias(self):
        # mean fitted coupling over independent seeds stays within three
        # standard errors of the prediction
        qs = []
        for seed in range(10):
            cfg = sde.SdeConfig(n_paths=120, steps=15_000, seed=seed)
            qs.append(sde.fit_qgaussian(sde.simulate(cfg)).q_est)
        qs = np.array(qs)
        se = qs.std(ddof=1) / math.sqrt(qs.size)
        assert abs(qs.mean() + 0.5) <= 3.0 * se
