"""Langevin dynamics with combined multiplicative and additive noise.

The model is

    dX = f(X) dt + sqrt(2 M) g(X) dW_1 + sqrt(2 A) dW_2,   f = -tau g g'

interpreted in the Ito sense with the drift taken as the effective
Fokker-Planck drift J(x) = f(x) (1 - M / tau), so that the stationary
density is the compact prediction

    p(x) = sqrt(beta) / c_q * exp_q(-beta g(x)^2),
    q = -2 M / (tau + M),   beta = (tau + M) / (2 A).

`simulate` integrates an ensemble of paths with Euler-Maruyama, one
normal per path and step from one seeded stream, and returns stationary
samples; `fit_qgaussian` recovers (q, mu, beta) from samples by maximum
likelihood, which stays well behaved in the heavy tail regime where
sample moments diverge.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InstabilityError, InsufficientDataError
from .qcore import COUPLING_EPS
from . import qdist

_BLOWUP = 1.0e12
# Noise values held at once, both blocks together, whatever the path count
_NOISE_VALUES = 1 << 21


class StationaryPrediction(NamedTuple):
    q: float
    beta: float
    q_hat: float


def _check_model_params(M, tau, A):
    for name, val in (("M", M), ("tau", tau), ("A", A)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val}")
    if M < 0.0:
        raise DomainError(f"M must be >= 0, got {M}")
    if tau <= 0.0:
        raise DomainError(f"tau must be > 0, got {tau}")
    if A <= 0.0:
        raise DomainError(f"A must be > 0, got {A}")


def predicted_stationary(M, tau, A):
    """Closed-form stationary parameters (q, beta, q_hat) of the model.

    q = -2M/(tau + M) lies in (-2, 0]; beta = (tau + M)/(2A); q_hat =
    2M/tau is the conjugate coupling of q. M = 0 recovers the
    Ornstein-Uhlenbeck Gaussian with beta = tau/(2A).
    """
    _check_model_params(M, tau, A)
    q = -2.0 * M / (tau + M)
    beta = (tau + M) / (2.0 * A)
    return StationaryPrediction(q, beta, 2.0 * M / tau)


def fp_coefficients(M, tau, A, x, g=None, gprime=None):
    """Effective drift J and diffusion D of the stationary Fokker-Planck
    equation at a point x.

    J(x) = f(x) + M g g' = f(x) (1 - M/tau) with f = -tau g g', and
    D(x) = A + M g(x)^2. Defaults to g(x) = x.
    """
    _check_model_params(M, tau, A)
    if g is None:
        gx, gpx = float(x), 1.0
    elif gprime is None:
        raise DomainError("gprime is required when g is given")
    else:
        gx, gpx = float(g(x)), float(gprime(x))
    J = -(tau - M) * gx * gpx
    D = A + M * gx * gx
    return J, D


@dataclass
class SdeConfig:
    """Euler-Maruyama run configuration.

    g names the noise coupling function; only "linear", g(x) = x, is
    implemented. seed is None or a non-negative integer.
    burn_in defaults to ceil(10 / (tau dt)) steps, ten relaxation times.
    Paths start at the origin; sampling keeps one point per path every
    max(1, ceil(1 / (tau dt))) steps after burn-in, about one relaxation
    time apart.
    """

    M: float = 0.25
    A: float = 0.5
    tau: float = 0.75
    g: str = "linear"
    dt: float = 0.01
    steps: int = 30_000
    n_paths: int = 500
    burn_in: int | None = None
    seed: int | None = 0

    def __post_init__(self):
        _check_model_params(self.M, self.tau, self.A)
        if self.g != "linear":
            raise DomainError(f"unknown g choice {self.g!r}")
        # dt > 0 and finite; below the lower end the default burn-in,
        # 10/(tau dt) steps, overflows
        if not 10.0 / np.finfo(float).max < self.dt * self.tau < 0.1:
            raise DomainError(f"dt * tau = {self.dt * self.tau:g} outside "
                              f"({10.0 / np.finfo(float).max:g}, 0.1)")
        qdist.check_seed(self.seed)
        if self.burn_in is None:
            self.burn_in = math.ceil(10.0 / (self.tau * self.dt))
        for name in ("steps", "n_paths", "burn_in"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {val!r}")
        if self.steps < 1:
            raise DomainError(f"steps must be >= 1, got {self.steps}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.burn_in < 0:
            raise DomainError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.burn_in >= self.steps:
            raise DomainError(
                f"burn_in {self.burn_in} must be < steps {self.steps}")

    @property
    def stride(self):
        return max(1, math.ceil(1.0 / (self.tau * self.dt)))

    @property
    def samples_per_path(self):
        return (self.steps - self.burn_in) // self.stride + 1


def simulate(cfg):
    """Integrate the ensemble and return stationary samples.

    Output is a flat float array ordered by path index, then by step, of
    length cfg.n_paths * cfg.samples_per_path. Deterministic for a given
    config: the ensemble reads one default_rng(seed) stream in step-major
    order, one normal per path and step. The Euler-Maruyama step
    x (1 + d) + m x N0 + a N1, with d = -(tau - M) dt, m = sqrt(2 M dt)
    and a = sqrt(2 A dt), is taken as x (1 + d) + sqrt(m^2 x^2 + a^2) N:
    given x both are Normal(x (1 + d), m^2 x^2 + a^2), so the chain is
    the same in law (Kloeden & Platen 1992, section 10.2).
    One helper thread draws the next noise block while this thread steps
    the current one; the samples depend neither on the core count nor on
    the block size.
    Raises InstabilityError if any path exceeds |X| = 1e12.
    """
    from concurrent.futures import ThreadPoolExecutor

    n = cfg.n_paths
    growth = 1.0 - (cfg.tau - cfg.M) * cfg.dt
    mul2 = 2.0 * cfg.M * cfg.dt
    add2 = 2.0 * cfg.A * cfg.dt
    stride = cfg.stride
    n_keep = cfg.samples_per_path

    rng = np.random.default_rng(cfg.seed)
    x, t, s = np.zeros(n), np.empty(n), np.empty(n)
    out = np.empty((n, n_keep))
    k = 0
    next_keep = cfg.burn_in
    if next_keep == 0:
        out[:, 0] = x
        k, next_keep = 1, stride

    step = 0
    block = min(max(1, _NOISE_VALUES // (2 * n)), cfg.steps)
    noise = np.empty((2, block, n))
    with ThreadPoolExecutor(1) as pool, \
            np.errstate(over="ignore", invalid="ignore"):
        pending = pool.submit(rng.standard_normal, out=noise[0])
        for b, start in enumerate(range(0, cfg.steps, block)):
            pending.result()
            rows = noise[b % 2, :cfg.steps - start]
            left = cfg.steps - start - block
            if left > 0:
                pending = pool.submit(rng.standard_normal,
                                      out=noise[1 - b % 2, :left])
            for row in rows:
                # x*(1 + d) + sqrt((x*x)*m^2 + a^2)*N in place; another
                # grouping would round differently
                np.multiply(x, x, out=s)
                s *= mul2
                s += add2
                np.sqrt(s, out=s)
                s *= row
                np.multiply(x, growth, out=t)
                t += s
                x, t = t, x
                step += 1
                if step == next_keep and k < n_keep:
                    out[:, k] = x
                    k += 1
                    next_keep += stride
            top = float(np.abs(x).max())
            if not math.isfinite(top) or top > _BLOWUP:
                raise InstabilityError(
                    f"|X| exceeded {_BLOWUP:g} at step {step}; reduce dt")
    return out.ravel()


class FitReport(NamedTuple):
    q_est: float
    beta_est: float
    mu_est: float
    loglik: float
    n: int
    converged: bool


# Quantile anchors of the unit-width family (beta = 1), used only to
# seed the likelihood search. r = (P95 - P5)/(P75 - P25) decreases with
# q; the q < 0 rows come from the Student-t quantile map, q > 0 from
# numeric inversion of the compact CDF.
_ANCHOR_Q = np.array([
    -1.95, -1.9, -1.8, -1.7, -1.6, -1.5, -1.4, -1.3, -1.2, -1.1,
    -1.0, -0.9, -0.8, -0.7, -0.6, -0.5, -0.4, -0.3, -0.2, -0.1,
    -0.05, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0,
])
_ANCHOR_LNR = np.log(np.array([
    1.818989e27, 1.907349e13, 1.953132e6, 9140.922805, 627.287979,
    126.817659, 44.322731, 21.303324, 12.544998, 8.477641,
    6.313752, 5.045270, 4.246165, 3.714072, 3.343815,
    3.076725, 2.878163, 2.726707, 2.608589, 2.514658,
    2.474728, 2.438664, 2.301381, 2.210701, 2.099934,
    1.993658, 1.912866, 1.861407,
]))
_ANCHOR_LNIQR1 = np.log(np.array([
    3.977845e11, 3.883701e5, 398.101835, 41.533506, 13.749892,
    7.191162, 4.701142, 3.476480, 2.769413, 2.314975,
    2.000000, 1.769295, 1.593133, 1.454217, 1.341848,
    1.249064, 1.171145, 1.104775, 1.047556, 0.997706,
    0.975109, 0.953873, 0.864289, 0.795149, 0.694593,
    0.571304, 0.444694, 0.332371,
]))

_Q_FLOOR = -2.0 + 1.0e-6
_PENALTY = 1.0e12


def _initial_guess(x):
    p5, p25, p50, p75, p95 = np.percentile(x, [5.0, 25.0, 50.0, 75.0, 95.0])
    iqr = p75 - p25
    if iqr <= 0.0:
        raise DomainError("samples have zero interquartile range")
    lnr = math.log((p95 - p5) / iqr)
    # anchors are ordered by decreasing r, flip for np.interp
    q0 = float(np.interp(lnr, _ANCHOR_LNR[::-1], _ANCHOR_Q[::-1]))
    lniqr1 = float(np.interp(q0, _ANCHOR_Q, _ANCHOR_LNIQR1))
    return q0, float(p50), 2.0 * (lniqr1 - math.log(iqr))


def _neg_loglik(theta, x):
    q, mu, lnb = theta
    if not np.all(np.isfinite(theta)):
        return 1e3 * _PENALTY
    if q <= _Q_FLOOR:
        return _PENALTY * (1.0 + (_Q_FLOOR - q))
    if q > 60.0:
        return _PENALTY * (1.0 + (q - 60.0))
    if abs(lnb) > 60.0:
        return _PENALTY * (1.0 + (abs(lnb) - 60.0))
    beta = math.exp(lnb)
    arg = -q * beta * np.square(x - mu)
    if q > 0.0:
        worst = 1.0 + float(arg.min())
        if worst <= 0.0:
            # sample outside the compact support
            return _PENALTY * (1.0 - worst)
    if abs(q) <= COUPLING_EPS:
        core = -beta * float(np.square(x - mu).sum())
    else:
        core = float(np.log1p(arg).sum()) / q
    n = x.size
    ll = n * (0.5 * lnb - math.log(qdist.c_q(q))) + core
    return -ll


def fit_qgaussian(samples, min_n=1000):
    """Maximum-likelihood fit of (q, mu, beta) to 1-d samples.

    Quantile-based initialization followed by Nelder-Mead on
    (q, mu, ln beta), log-likelihood tolerance 1e-8, at most 10^4
    evaluations (converged=False reports the best point found).
    Requires at least min_n samples.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < min_n:
        raise InsufficientDataError(
            f"need at least {min_n} samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite")

    theta, fun, done = _nelder_mead(lambda th: _neg_loglik(th, x),
                                    _initial_guess(x))
    q, mu, lnb = theta
    converged = done and fun < _PENALTY
    return FitReport(float(q), math.exp(lnb), float(mu),
                     -float(fun), int(x.size), converged)


class _OutOfEvaluations(Exception):
    """The simplex search has used its evaluation budget."""


def _nelder_mead(fn, x0, max_evals=10_000):
    """Minimise fn from x0 with the Nelder-Mead simplex, step for step
    as scipy's: initial steps of 5% (0.00025 from zero); reflection 1,
    expansion 2, contraction and shrink 1/2; stop once the simplex
    spans at most 1e-6 and its values at most 1e-8.  Returns the best
    point, its value and whether it stopped within max_evals.  (Each
    iteration evaluates fn at least once, so scipy's equal iteration
    budget never binds first.)"""
    evals = 0

    def f(th):
        nonlocal evals
        if evals >= max_evals:
            raise _OutOfEvaluations
        evals += 1
        return fn(th)

    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(p) for p in sim])
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    while evals < max_evals:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-6
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-8):
                break
            xbar = sim[:-1].sum(axis=0) / n
            xr = 2.0 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = fxc > fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = fxc >= fsim[-1]
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
                else:
                    sim[-1], fsim[-1] = xc, fxc
        except _OutOfEvaluations:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(fsim.min()), evals < max_evals
