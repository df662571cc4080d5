import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcoupling import qdist, qseq, sde
from qcoupling.errors import (
    DomainError,
    InstabilityError,
    InsufficientDataError,
    NumericsError,
)


def _reference_noise(cfg):
    # chunk j holds the noise of rows steps of every path and is drawn
    # whole from the j-th child of SeedSequence(seed); the last chunk
    # draws the steps that are left
    rows = max(1, min(cfg.steps, sde._CHUNK // cfg.n_paths))
    starts = range(0, cfg.steps, rows)
    children = np.random.SeedSequence(cfg.seed).spawn(len(starts))
    return np.concatenate([
        np.random.Generator(np.random.SFC64(child)).standard_normal(
            (min(rows, cfg.steps - start), cfg.n_paths))
        for child, start in zip(children, starts)])


def _reference_states(cfg):
    # reference: the ensemble draws all of its chunks at once, and the
    # step arithmetic is the same, x (1 + d) + sqrt(x^2 + A/M) (m N) or,
    # where A/M is past the float range, x (1 + d) + sqrt((M/A) x^2 + 1)
    # (a N), so the states after each step are bitwise equal
    growth = 1.0 - (cfg.tau - cfg.M) * cfg.dt
    multiplicative = cfg.M > 0.0 and cfg.A / cfg.M < math.inf
    noise = _reference_noise(cfg)
    x = np.zeros(cfg.n_paths)
    if multiplicative:
        noise *= math.sqrt(2.0 * cfg.M * cfg.dt)
        for row in noise:
            x = x * growth + np.sqrt(x * x + cfg.A / cfg.M) * row
            yield x
    else:
        noise *= math.sqrt(2.0 * cfg.A * cfg.dt)
        for row in noise:
            x = x * growth + np.sqrt((x * x) * (cfg.M / cfg.A) + 1.0) * row
            yield x


def _reference_samples(cfg):
    kept = [x for step, x in enumerate(_reference_states(cfg), 1)
            if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.stride == 0]
    return np.stack(kept, axis=1).ravel()


def _reference_blowup_step(cfg):
    # the first step after which some |X| passes 1e12
    for step, x in enumerate(_reference_states(cfg), 1):
        if np.abs(x).max() > 1e12:
            return step


def _two_normal_state(cfg, seed):
    # the ensemble after burn_in two-normal Euler-Maruyama steps
    # x + d x + m x N0 + a N1
    drift = -(cfg.tau - cfg.M) * cfg.dt
    mul = math.sqrt(2.0 * cfg.M * cfg.dt)
    add = math.sqrt(2.0 * cfg.A * cfg.dt)
    rng = np.random.Generator(np.random.SFC64(seed))
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

    def test_rates_past_the_float_range(self):
        # tau + M and 2M overflow; q = -1, beta = 1e308 and q_hat = 2 do not
        assert sde.predicted_stationary(1e308, 1e308, 1.0) == (-1.0, 1e308, 2.0)
        with pytest.raises(NumericsError):
            sde.predicted_stationary(1e308, 1e308, 1e-10)   # beta = 1e318
        with pytest.raises(NumericsError):
            sde.predicted_stationary(1e308, 1e-10, 1.0)     # q_hat = 2e318

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

    @pytest.mark.parametrize("M, x", [(1e308, 1e200), (1.0, 1e200)])
    def test_coefficients_past_the_float_range(self, M, x):
        # J = (M - tau) x = 1e508 or D = A + M x^2 = 1e400
        with pytest.raises(NumericsError):
            sde.fp_coefficients(M, 1.0, 1.0, x)

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
        dict(A=math.inf),
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
        # a whole-run chunk and 64-step chunks
        cfg = sde.SdeConfig(steps=300, n_paths=5, burn_in=37, seed=11)
        monkeypatch.setattr(sde, "_CHUNK", block * cfg.n_paths)
        assert np.array_equal(sde.simulate(cfg), _reference_samples(cfg))

    @pytest.mark.parametrize("n_paths", [37, 389])
    def test_partial_blocks_match_whole_run_draws(self, monkeypatch, n_paths):
        # 40-step chunks leave a 20-step last chunk
        cfg = sde.SdeConfig(steps=300, n_paths=n_paths, burn_in=37, seed=5)
        monkeypatch.setattr(sde, "_CHUNK", 40 * cfg.n_paths)
        assert np.array_equal(sde.simulate(cfg), _reference_samples(cfg))

    def test_independent_of_cores_and_ring_size(self, monkeypatch):
        # 16-step chunks, the last of 12 steps, on 1 to 8 threads and in a
        # ring of 2 slots or of the whole run; with a short switch
        # interval a chunk read before its draw ends, or a slot drawn over
        # before it is stepped, shows as a difference
        cfg = sde.SdeConfig(steps=300, n_paths=7, burn_in=20, seed=13)
        monkeypatch.setattr(sde, "_CHUNK", 16 * cfg.n_paths)
        want = _reference_samples(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 8):
                monkeypatch.setattr(qdist, "_cores", lambda cores=cores: cores)
                for ring in (2 * 16, cfg.steps):
                    monkeypatch.setattr(sde, "_NOISE_VALUES", ring * cfg.n_paths)
                    assert np.array_equal(sde.simulate(cfg), want)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("M", [0.0, 1e-310])
    def test_additive_law_where_A_over_M_overflows(self, M):
        # A/M is 0.5/0 or 5e309: the step keeps the additive law, with no
        # nan, and the stationary variance is the Ornstein-Uhlenbeck A/tau
        cfg = sde.SdeConfig(M=M, tau=1.0, A=0.5, n_paths=200, steps=20_000,
                            seed=4)
        xs = sde.simulate(cfg)
        assert np.isfinite(xs).all()
        assert xs.var() == pytest.approx(0.5, rel=0.05)
        assert np.array_equal(xs, _reference_samples(cfg))

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

    def test_instability_raised(self, monkeypatch):
        # the error names the first step where some |X| passes 1e12,
        # whether the noise comes in one whole-run chunk, 64-step chunks
        # or 16-step chunks, in the middle of a chunk
        cfg = sde.SdeConfig(M=20.0, tau=1.0, A=0.5, dt=0.05, steps=5000,
                            n_paths=8, burn_in=10, seed=1)
        for block in (cfg.steps, 64, 16):
            monkeypatch.setattr(sde, "_CHUNK", block * cfg.n_paths)
            want = _reference_blowup_step(cfg)
            assert want < cfg.steps and want % block
            with pytest.raises(InstabilityError, match=f" at step {want};"):
                sde.simulate(cfg)

    @pytest.mark.parametrize("n_paths", [5, 1])
    def test_repeated_runs_are_bitwise_equal(self, monkeypatch, n_paths):
        monkeypatch.setattr(sde, "_CHUNK", 64 * n_paths)
        cfg = sde.SdeConfig(steps=300, n_paths=n_paths, burn_in=37, seed=11)
        runs = [sde.simulate(cfg) for _ in range(3)]
        for run in runs[1:]:
            assert np.array_equal(run, runs[0])
        assert np.array_equal(runs[0], _reference_samples(cfg))

    def test_instability_leaves_no_worker_thread(self, monkeypatch):
        # 64-step chunks: the blow-up is found at the end of an early
        # chunk, while the draws of later ones are pending
        monkeypatch.setattr(sde, "_CHUNK", 64 * 8)
        monkeypatch.setattr(qdist, "_cores", lambda: 4)
        cfg = sde.SdeConfig(M=20.0, tau=1.0, A=0.5, dt=0.05, steps=5000,
                            n_paths=8, burn_in=10, seed=1)
        before = threading.active_count()
        with pytest.raises(InstabilityError):
            sde.simulate(cfg)
        assert threading.active_count() == before

    def test_noise_failure_reaches_caller(self, monkeypatch):
        # 64-step chunks: the run makes five draws, each from a Generator
        # of its own, counted together; the first fails, then in a second
        # run the third, on whichever thread draws it
        real_generator = np.random.Generator

        class Failing:
            draws = 0

            def __init__(self, bit_generator):
                self.rng = real_generator(bit_generator)

            def standard_normal(self, out):
                Failing.draws += 1
                if Failing.draws == failing_draw:
                    raise RuntimeError("draw failed")
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(sde, "_CHUNK", 64 * 5)
        monkeypatch.setattr(np.random, "Generator", Failing)
        for failing_draw in (1, 3):
            Failing.draws = 0
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

    def test_uniform_reports_no_convergence(self):
        # the likelihood of uniform samples climbs on as q -> inf
        xs = np.random.default_rng(3).uniform(size=20_000)
        assert not sde.fit_qgaussian(xs).converged

    @pytest.mark.parametrize("theta", [
        (0.0, 0.1, -0.2), (1e-9, 0.1, -0.2), (-0.5, 0.0, 0.3),
        (-1.9, -0.2, 0.5), (0.05, 0.1, -0.2)])
    def test_derivatives_match_differences(self, theta):
        xs = np.random.default_rng(4).standard_normal(5000)
        theta = np.array(theta)
        _, grad, hess = sde._loglik(theta, xs, True)
        h = 1e-5
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            up, down = (sde._loglik(theta + s * e, xs, True) for s in (1, -1))
            assert grad[k] == pytest.approx((up[0] - down[0]) / (2 * h),
                                            rel=1e-6, abs=1e-6)
            np.testing.assert_allclose(hess[k], (up[1] - down[1]) / (2 * h),
                                       rtol=1e-5, atol=1e-4)

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

    @pytest.mark.filterwarnings("error")
    def test_sample_past_the_float_range_of_the_likelihood(self):
        xs = np.random.default_rng(1).standard_cauchy(2000)
        xs[0] = 1e200
        with pytest.raises(NumericsError):
            sde.fit_qgaussian(xs)


class TestNelderMead:
    """The Newton fit against scipy's Nelder-Mead simplex, run tight on an
    independent copy of the log-likelihood, as the test oracle."""

    @staticmethod
    def _reference(xs):
        from scipy.optimize import minimize

        # standardised samples; the fitted q is unchanged by the scaling
        # and the log-likelihood moves by -n ln(iqr)
        p25, med, p75 = np.percentile(xs, [25.0, 50.0, 75.0])
        z = (xs - med) / (p75 - p25)

        def neg_loglik(theta):
            q, mu, lnb = theta
            if not q > -2.0 + 1e-6:
                return math.inf
            beta = math.exp(lnb)
            arg = -q * beta * (z - mu) ** 2
            if q > 0.0 and arg.min() <= -1.0:
                return math.inf
            core = (-beta * float(((z - mu) ** 2).sum()) if q == 0.0
                    else float(np.log1p(arg).sum()) / q)
            return -(z.size * (0.5 * lnb - math.log(qseq.c_q(q))) + core)

        # from the quantile start moved to q <= 0, where every sample is
        # inside the support, restarted on a fresh simplex until a run
        # gains nothing: one run may stop on a collapsed simplex
        q0, mu0, lnb0 = sde._initial_guess(z)
        theta, best = np.array([min(q0, 0.0), mu0, lnb0]), math.inf
        while True:
            simplex = theta + np.vstack([np.zeros(3), 0.01 * np.eye(3)])
            res = minimize(neg_loglik, theta, method="Nelder-Mead",
                           options=dict(xatol=1e-8, fatol=1e-9,
                                        initial_simplex=simplex))
            if not res.fun < best:
                break
            theta, best = res.x, res.fun
        return theta[0], -best - xs.size * math.log(p75 - p25)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("source", [
        "headline", "gaussian", "heavy", "compact", "q=-1.9", "q=-1",
        "q=0.5", "q=2", "q=4", "cauchy", "narrow", "wide"])
    def test_fit_matches_scipy(self, headline_run, source):
        rng = np.random.default_rng(17)
        if source == "headline":
            xs = headline_run[1]
        elif source == "gaussian":
            xs = np.random.default_rng(5).standard_normal(100_000)
        elif source == "cauchy":
            xs = 1e3 * rng.standard_cauchy(20_000) + 5.0
        elif source == "narrow":
            xs = 1e4 + 1e-8 * rng.standard_normal(20_000)
        elif source == "wide":
            xs = 1e8 * rng.standard_normal(20_000)
        else:
            q = {"heavy": -0.5, "compact": 1.0}.get(source)
            q = float(source[2:]) if q is None else q
            xs = qdist.sample_qgaussian(qdist.QGaussian(q), 20_000, seed=9)
        rep = sde.fit_qgaussian(xs)
        q_ref, ll_ref = self._reference(xs)
        assert rep.converged
        assert rep.n == xs.size
        assert rep.loglik >= ll_ref - 1e-9 * abs(ll_ref)
        assert rep.q_est == pytest.approx(q_ref, abs=1e-5)


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


def test_stationary_experiment_script_runs():
    script = Path(__file__).parents[1] / "scripts" / "stationary_experiment.py"
    src = Path(sde.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    # 80 paths keep 1040 samples, past the fit's minimum of 1000
    proc = subprocess.run(
        [sys.executable, str(script), "--seeds", "1", "--steps", "3000",
         "--n-paths", "80"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["seed", "n", "q_est", "beta_est", "mu_est",
                                "hat(q_est)", "conv"]
    assert lines[2].split()[:2] == ["0", "1040"]
