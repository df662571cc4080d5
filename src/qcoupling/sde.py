"""Langevin dynamics with combined multiplicative and additive noise.

The model is

    dX = f(X) dt + sqrt(2 M) g(X) dW_1 + sqrt(2 A) dW_2,   f = -tau g g'

interpreted in the Ito sense with the drift taken as the effective
Fokker-Planck drift J(x) = f(x) (1 - M / tau), so that the stationary
density is the compact prediction

    p(x) = sqrt(beta) / c_q * exp_q(-beta g(x)^2),
    q = -2 M / (tau + M),   beta = (tau + M) / (2 A).

`simulate` integrates an ensemble of paths with Euler-Maruyama, one
normal per path and step from seeded per-chunk SFC64 streams, and returns
stationary samples; `fit_qgaussian` recovers (q, mu, beta) from samples
by maximum likelihood, which stays well behaved in the heavy tail
regime where sample moments diverge, with damped Newton steps on the
likelihood's closed-form derivatives.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, InstabilityError, InsufficientDataError,
                     NumericsError)
from . import qdist
from .qseq import _finite, _integer

_BLOWUP = 1.0e12
# Noise values per chunk, each chunk from its own stream
_CHUNK = 1 << 16
# Noise values held at once, all chunk slots together, whatever the path count
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

    q = -2M/(tau + M) = -2/(1 + tau/M) lies in (-2, 0]; beta =
    (tau + M)/(2A); q_hat = 2 (M/tau) is the conjugate coupling of q.
    M = 0 recovers the Ornstein-Uhlenbeck Gaussian with beta = tau/(2A).
    Raises NumericsError where beta or q_hat leaves the float range.
    """
    _check_model_params(M, tau, A)
    q = -2.0 / (1.0 + tau / M) if M > 0.0 else 0.0
    beta, q_hat = (0.5 * tau + 0.5 * M) / A, 2.0 * (M / tau)
    if not (0.0 < beta < math.inf and q_hat < math.inf):
        raise NumericsError(f"beta {beta!r} or q_hat {q_hat!r} is past the float range")
    return StationaryPrediction(q, beta, q_hat)


def fp_coefficients(M, tau, A, x):
    """Effective drift J and diffusion D of the stationary Fokker-Planck
    equation at a point x, for the coupling g(x) = x of simulate.

    J(x) = f(x) + M g g' = f(x) (1 - M/tau) with f = -tau g g', and
    D(x) = A + M g(x)^2.  Raises NumericsError where J or D leaves the
    float range.
    """
    _check_model_params(M, tau, A)
    x = _finite(x, "x")
    J = -(tau - M) * x
    D = A + M * x * x
    if not (math.isfinite(J) and D < math.inf):
        raise NumericsError(f"J {J!r} or D {D!r} is past the float range")
    return J, D


@dataclass
class SdeConfig:
    """Euler-Maruyama run configuration.

    The noise couples through g(x) = x. seed is None or a non-negative
    integer.
    burn_in defaults to ceil(10 / (tau dt)) steps, ten relaxation times.
    Paths start at the origin; sampling keeps one point per path every
    max(1, ceil(1 / (tau dt))) steps after burn-in, about one relaxation
    time apart.
    """

    M: float = 0.25
    A: float = 0.5
    tau: float = 0.75
    dt: float = 0.01
    steps: int = 30_000
    n_paths: int = 500
    burn_in: int | None = None
    seed: int | None = 0

    def __post_init__(self):
        _check_model_params(self.M, self.tau, self.A)
        # dt > 0 and finite; below the lower end the default burn-in,
        # 10/(tau dt) steps, overflows
        if not 10.0 / np.finfo(float).max < self.dt * self.tau < 0.1:
            raise DomainError(f"dt * tau = {self.dt * self.tau:g} outside "
                              f"({10.0 / np.finfo(float).max:g}, 0.1)")
        if self.seed is not None:
            _integer(self.seed, "seed", 0)
        if self.burn_in is None:
            self.burn_in = math.ceil(10.0 / (self.tau * self.dt))
        for name, low in (("steps", 1), ("n_paths", 1), ("burn_in", 0)):
            _integer(getattr(self, name), name, low)
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
    config. The Euler-Maruyama step x (1 + d) + m x N0 + a N1, with
    d = -(tau - M) dt, m = sqrt(2 M dt) and a = sqrt(2 A dt), is taken as
    x (1 + d) + sqrt(m^2 x^2 + a^2) N: given x both are
    Normal(x (1 + d), m^2 x^2 + a^2), so the chain is the same in law
    (Kloeden & Platen 1992, section 10.2). It is computed as
    x (1 + d) + sqrt(x^2 + A/M) (m N), or, where M = 0 or A/M is past the
    float range, as x (1 + d) + sqrt((M/A) x^2 + 1) (a N).
    The noise comes in chunks of max(1, min(steps, _CHUNK // n_paths))
    steps, one normal per path and step. Chunk j is drawn from its own
    stream, Generator(SFC64(child)) with child the j-th child of
    SeedSequence(seed), so the samples depend on the seed and the config
    alone, not on the core count or on _NOISE_VALUES. Worker threads, one
    per available core beyond the first, fill chunks ahead of the stepping
    thread into a ring of _NOISE_VALUES values; while its next chunk is
    not ready, the stepping thread draws the chunks no thread has started.
    Raises InstabilityError if any path exceeds |X| = 1e12, naming the
    first step where one does; |X| is tested at the end of each chunk,
    so a path that passes 1e12 and returns within a chunk is not seen.
    """
    from collections import deque
    from concurrent.futures import Future, ThreadPoolExecutor

    n, steps = cfg.n_paths, cfg.steps
    growth = 1.0 - (cfg.tau - cfg.M) * cfg.dt
    if cfg.M > 0.0 and cfg.A / cfg.M < math.inf:
        scale, mul, add = math.sqrt(2.0 * cfg.M * cfg.dt), 1.0, cfg.A / cfg.M
    else:
        scale, mul, add = math.sqrt(2.0 * cfg.A * cfg.dt), cfg.M / cfg.A, 1.0
    stride = cfg.stride
    n_keep = cfg.samples_per_path

    x, t, s, x0 = np.zeros(n), np.empty(n), np.empty(n), np.empty(n)
    out = np.empty((n, n_keep))
    k = 0
    next_keep = cfg.burn_in
    if next_keep == 0:
        out[:, 0] = x
        k, next_keep = 1, stride

    rows = max(1, min(steps, _CHUNK // n))
    chunks = -(-steps // rows)
    slots = min(chunks, max(2, _NOISE_VALUES // (rows * n)))
    # allocated after the outputs: before them it left 0.6 MB more
    # resident over repeated runs
    ring = np.empty((slots, rows, n))
    entropy = np.random.SeedSequence(cfg.seed).entropy

    def draw(j):
        """Chunk j of the noise, unscaled, in its slot of the ring; its
        stream's seed is the j-th child that spawn() would give."""
        z = ring[j % slots, :min(rows, steps - j * rows)]
        child = np.random.SeedSequence(entropy, spawn_key=(j,))
        np.random.Generator(np.random.SFC64(child)).standard_normal(out=z)
        return z

    step = 0
    workers = min(qdist._cores(), chunks) - 1
    pool = ThreadPoolExecutor(workers) if workers else None
    try:
        if pool:
            ahead = deque(pool.submit(draw, j) for j in range(slots))
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(chunks):
                if pool:
                    # while chunk j is not ready, the draws that no worker
                    # has started are taken here, in order
                    for i in range(len(ahead)):
                        if ahead[0].done():
                            break
                        if ahead[i].cancel():
                            ahead[i] = Future()
                            ahead[i].set_result(draw(j + i))
                    z = ahead.popleft().result()
                else:
                    z = draw(j)
                # scaled here: on a worker the product would take the GIL
                # once more per chunk, and this loop holds it
                z *= scale
                np.copyto(x0, x)
                for row in z:
                    x, t = _step(x, t, s, row, growth, mul, add)
                    step += 1
                    if step == next_keep and k < n_keep:
                        out[:, k] = x
                        k += 1
                        next_keep += stride
                if _blown(x):
                    # |X| is tested once per chunk; the chunk's rows,
                    # replayed from its start, name the step that blew up
                    for step, row in enumerate(z, j * rows + 1):
                        x0, t = _step(x0, t, s, row, growth, mul, add)
                        if _blown(x0):
                            break
                    raise InstabilityError(
                        f"|X| exceeded {_BLOWUP:g} at step {step}; reduce dt")
                if pool and j + slots < chunks:
                    ahead.append(pool.submit(draw, j + slots))
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return out.ravel()


def _step(x, t, s, row, growth, mul, add):
    """One step of the ensemble x into t, with s as scratch and row the
    scaled noise: x*(1 + d) + sqrt((x*x)*mul + add)*row, in place and in
    that grouping, since another would round differently; a product by
    mul = 1 is left out.  Returns (t, x)."""
    np.multiply(x, x, out=s)
    if mul != 1.0:
        s *= mul
    s += add
    np.sqrt(s, out=s)
    s *= row
    np.multiply(x, growth, out=t)
    t += s
    return t, x


def _blown(x):
    top = float(np.abs(x).max())
    return not math.isfinite(top) or top > _BLOWUP


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
_MIN_SAMPLES = 1000
_MAX_NEWTON = 100


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


def _loglik(theta, x, derivs):
    """Log-likelihood of theta = (q, mu, ln beta) over the samples x, with
    its gradient and Hessian in theta if derivs, in one pass; -inf where
    q <= _Q_FLOOR, u overflows or a sample is outside the support.

    A sample's data term is log(1 - t)/q, u = beta (x - mu)^2, t = q u.
    Derivatives are written in r = t/(1 - t) and w = u/(1 - t) = r/q,
    bounded far in a heavy tail; q-derivatives cancel as r -> 0 and take
    a series there, also at q = 0.  ln c_q is differenced above q = -2.
    """
    q, mu, lnb = theta
    if not (q > _Q_FLOOR and lnb < 700.0):
        return -math.inf, None, None
    beta = math.exp(lnb)
    y = x - mu
    with np.errstate(over="ignore"):
        u = beta * y * y
    t = q * u
    if not u.max() < math.inf or q > 0.0 and not t.max() < 1.0:
        return -math.inf, None, None
    p = 1.0 / (1.0 - t)
    r, w = t * p, u * p
    # where r is small the data term and its first two q-derivatives are
    # -w S_1, -w^2 S_2 and -2 w^3 S_3, S_m = sum_j (-r)^j/(j + m), j < 5
    small = np.abs(r) < 1.0e-3
    ws, rs, rb = w[small], -r[small], r[~small]
    terms = []
    for m in (1, 2, 3):
        s_m = np.polyval(1.0 / np.arange(m + 4, m - 1, -1), rs)
        terms.append(-float((ws ** m * s_m).sum()))
    terms[2] *= 2.0
    if rb.size:
        # elsewhere they are e/q, -(r + e)/q^2 and (2 (r + e) - r^2)/q^3
        # with e = log(1 - t), each summed before dividing
        e, sr = float(np.log1p(-t[~small]).sum()), float(rb.sum())
        terms[0] += e / q
        terms[1] -= (sr + e) / q ** 2
        terms[2] += (2.0 * (sr + e) - float((rb * rb).sum())) / q ** 3
    h = min(1.0e-4, 0.5 * (q + 2.0))
    lo, lc, hi = (math.log(qdist.c_q(v)) for v in (q - h, q, q + h))
    n = x.size
    ll = n * (0.5 * lnb - lc) + terms[0]
    if not derivs:
        return ll, None, None
    # in mu and ln beta through du/dmu = -2 beta y and du/dln beta = u
    py, wp = p * y, w * p
    h_qm, h_qs = 2.0 * beta * float((wp * y).sum()), -float((w * w).sum())
    h_ms = 2.0 * beta * float((py * p).sum())
    grad = np.array([terms[1] - n * (hi - lo) / (2.0 * h),
                     2.0 * beta * float(py.sum()), 0.5 * n - float(w.sum())])
    hess = np.array([
        [terms[2] - n * (hi - 2.0 * lc + lo) / (h * h), h_qm, h_qs],
        [h_qm, -2.0 * beta * float((p + 2.0 * r * p).sum()), h_ms],
        [h_qs, h_ms, -float(wp.sum())]])
    return ll, grad, hess


def fit_qgaussian(samples):
    """Maximum-likelihood fit of (q, mu, beta) to 1-d samples.

    From the quantile-based start, on the samples centred at their
    median and scaled to the start's width, damped Newton steps climb
    the log-likelihood in (q, mu, ln beta).  Each step is set by the
    Hessian made negative definite and halved until it gains an Armijo
    share of its prediction, so every point taken lies in the support.
    The search stops once the Newton decrement is at most 1e-10; else,
    after _MAX_NEWTON steps or a step that gains nothing, it reports its
    last point with converged=False.  Needs _MIN_SAMPLES samples; raises
    NumericsError where the scaled samples' squares overflow.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < _MIN_SAMPLES:
        raise InsufficientDataError(
            f"need at least {_MIN_SAMPLES} samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite")

    q, mu0, lnb0 = _initial_guess(x)
    # the start is (q, 0, 0) on the scaled samples z; a compact start
    # holds every sample inside its support
    with np.errstate(over="ignore"):
        z = (x - mu0) * math.exp(0.5 * lnb0)
        zz = float(np.max(z * z))
    if not zz < math.inf:
        raise NumericsError("samples spread past the likelihood's range")
    if q > 0.0:
        q = min(q, 0.5 / zz)
    theta = np.array([q, 0.0, 0.0])
    ll, grad, hess = _loglik(theta, z, True)
    for _ in range(_MAX_NEWTON):
        lam, vec = np.linalg.eigh(hess)
        step = vec @ ((vec.T @ grad) / np.abs(lam))
        decrement = float(grad @ step)
        if decrement <= 1.0e-10:
            break
        a = 1.0
        while a > 1.0e-18 and _loglik(theta + a * step, z, False)[0] < (
                ll + 1.0e-4 * a * decrement):
            a *= 0.5
        if a <= 1.0e-18:
            break
        theta = theta + a * step
        ll, grad, hess = _loglik(theta, z, True)
    q, mu, lnb = theta
    return FitReport(float(q), math.exp(lnb + lnb0),
                     mu0 + float(mu) * math.exp(-0.5 * lnb0),
                     ll + 0.5 * x.size * lnb0, int(x.size),
                     decrement <= 1.0e-10)
