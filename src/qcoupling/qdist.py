"""Coupled (deformed-Gaussian) distributions, escort transforms, and
generalized entropy.

One type, QFamily(q, alpha, a, beta, mu), is the coupled family
    a * exp_q(-beta |x - mu|^alpha),  0 < alpha <= 2, q > -alpha,
with its value (a scalar x gives a float), integration plan and mass.
Its alpha = 2 members are the generalized Gaussians: QGaussian(q, mu,
sigma_sq) builds the normalized one, beta = 1/((2+q) sigma_sq) and
a = sqrt(beta)/c_q(q), and sigma_sq is read back from beta.  For q > 0
the support is compact, |x - mu| < (q beta)^(-1/alpha); for q < 0 the
tails decay like |x|^(alpha/q).  QFamily itself builds unnormalized
members.

The escort (coupled) transform raises probabilities to the power 1 - q
and renormalizes; applied to a family member it lands back in the
family, and the escort variance reproduces sigma_sq exactly.  Escort and
entropy have one kernel each, under np.sum or a grid's trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._quadrature import line_quad
from .errors import DomainError, NumericsError
from .qcore import exp_q_neg_power
# c_q lives in qseq, free of numpy; selfcheck looks it up as qdist.c_q
from .qseq import COUPLING_EPS, _finite, _integer, c_q, conj_hat, coupling_value

PRESERVE_VARIANCE = "preserve-variance"
PRESERVE_BETA = "preserve-beta"
PRESERVE_NORMALIZATION = "preserve-normalization"


@dataclass(frozen=True)
class QFamily:
    """The coupled family a * exp_q(-beta |x - mu|^alpha) with
    0 < alpha <= 2, integrable for q > -alpha.

    The alpha = 2 members are the q-Gaussians; QGaussian (and qft's
    QGaussianShape) build members.  Every field is stored as a validated
    float.
    """

    q: float
    alpha: float = 2.0
    a: float = 1.0
    beta: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", coupling_value(self.q))
        for name in ("alpha", "beta", "a", "mu"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must be in (0, 2], got {self.alpha}")
        if self.q <= -self.alpha:
            raise DomainError(
                f"coupling {self.q} <= -alpha = {-self.alpha} is not integrable")
        if self.beta <= 0.0:
            raise DomainError("beta must be positive")
        if self.a <= 0.0:
            raise DomainError("amplitude a must be positive")

    @property
    def sigma_sq(self) -> float:
        """Generalized scale of a q-Gaussian member, 1/((2+q) beta)."""
        return 1.0 / ((2.0 + self.q) * self.beta)

    def value(self, x):
        """a * exp_q(-beta |x - mu|^alpha); a scalar x gives a float."""
        u = np.asarray(x, dtype=float) - self.mu
        return self.a * exp_q_neg_power(self.q, self.beta, u, self.alpha)

    def plan(self):
        """Layout (core halfwidth, tail_power, points) of line_quad for the
        member centred at 0; a compact support is the core."""
        q, beta, alpha = self.q, self.beta, self.alpha
        if q > COUPLING_EPS:
            return (1.0 / (q * beta)) ** (1.0 / alpha), None, [0.0]
        edge = (45.0 / beta) ** (1.0 / alpha)
        if abs(q) <= COUPLING_EPS:
            return edge, None, None
        core = max(100.0 / (-q * beta), 100.0 / beta) ** (1.0 / alpha)
        # breakpoints keep the adaptive rule from overlooking a central bump
        # that is narrow relative to the heavy-tail core
        return core, alpha / q, [-edge, 0.0, edge]

    def mass(self) -> float:
        """Numeric integral of value over the line."""
        val, _ = line_quad(lambda u: self.value(u + self.mu), *self.plan())
        return val


def QGaussian(q, mu=0.0, sigma_sq=1.0) -> QFamily:
    """Normalized q-Gaussian with location mu and generalized scale
    sigma_sq (the escort variance): beta = 1/((2+q) sigma_sq) and
    amplitude sqrt(beta)/c_q(q)."""
    q = coupling_value(q)
    c = c_q(q)
    sigma_sq = _finite(sigma_sq, "sigma_sq")
    s = (2.0 + q) * sigma_sq
    if not (0.0 < s < math.inf and 1.0 / s < math.inf):
        raise DomainError(f"sigma_sq must be positive with beta = 1/((2+q) "
                          f"sigma_sq) in the float range, got {sigma_sq!r}")
    beta = 1.0 / s
    return QFamily(q, 2.0, math.sqrt(beta) / c, beta, mu)


def _require_gaussian(dist: QFamily):
    if dist.alpha != 2.0:
        raise DomainError(f"needs a q-Gaussian (alpha = 2), got alpha = {dist.alpha}")


def qgaussian_pdf(dist: QFamily, x):
    """Density of a family member at x; a scalar x gives a float."""
    return dist.value(x)


def support_bounds(dist: QFamily) -> tuple[float, float]:
    """Support interval of a q-Gaussian; the whole line unless q > 0."""
    _require_gaussian(dist)
    if dist.q > COUPLING_EPS:
        half = 1.0 / math.sqrt(dist.q * dist.beta)
        return dist.mu - half, dist.mu + half
    return -math.inf, math.inf


def qgaussian_mass(dist: QFamily) -> float:
    """Numeric integral of the pdf (should be 1); used as a self-check."""
    return dist.mass()


def q_alpha_normalize(fam: QFamily) -> QFamily:
    """Rescale the amplitude so the family integrates to 1."""
    return replace(fam, a=fam.a / fam.mass())


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Uniformly spaced density samples: f[j] at x0 + j*dx."""

    x0: float
    dx: float
    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))
        if not (math.isfinite(self.x0) and self.dx > 0.0 and math.isfinite(self.dx)):
            raise DomainError("grid needs finite x0 and dx > 0")
        if self.f.ndim != 1 or self.f.size < 2:
            raise DomainError("grid needs a 1-d array of at least 2 samples")
        if not np.all(np.isfinite(self.f)) or np.any(self.f < 0.0):
            raise DomainError("grid values must be finite and nonnegative")

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.f.size)

    def mass(self) -> float:
        return float(np.trapezoid(self.f, dx=self.dx))


def _validated_probs(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("probabilities must be a nonempty 1-d array")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise DomainError("probabilities must be finite and nonnegative")
    if abs(p.sum() - 1.0) > 1e-12 * p.size:
        raise DomainError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def _escort(v: np.ndarray, q: float, total) -> np.ndarray:
    """v^(1-q) / total(v^(1-q)) for values v >= 0 under their sum rule
    total; zero values, which diverge for q >= 1, and a normalizer past
    the float range raise DomainError."""
    pos = v > 0.0
    if q >= 1.0 and not pos.all():
        raise DomainError("escort with q >= 1 diverges on zero values")
    w = np.zeros_like(v)
    with np.errstate(over="ignore"):
        w[pos] = v[pos] ** (1.0 - q)
        z = float(total(w))
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError("escort normalizer is not finite and positive")
    return w / z


def _entropy(v: np.ndarray, q: float, total) -> float:
    """(total(v^(1-q)) - 1)/q for values v >= 0 under their sum rule total,
    -total(v ln v) at q -> 0.  Zero values add zero in place, since a rule's
    weights depend on position; a sum past the float range raises DomainError."""
    pos = v > 0.0
    u, d, ln_u = v[pos], np.zeros_like(v), np.log(v[pos])
    with np.errstate(over="ignore"):
        if abs(q) <= COUPLING_EPS:
            d[pos] = u * ln_u
            s = -float(total(d))
        else:
            # u^(1-q) - u as u expm1(-q ln u) where |q ln u| < 1, which
            # avoids the cancellation of the direct form at small |q|
            t = -q * ln_u
            d[pos] = np.where(np.abs(t) < 1.0, u * np.expm1(t), u ** (1.0 - q) - u)
            s = (float(total(d)) + (float(total(v)) - 1.0)) / q
    if not math.isfinite(s):
        raise DomainError("entropy sum leaves the float range")
    return s


def coupled_discrete(p, q) -> np.ndarray:
    """Escort transform p_i^(1-q) / sum_j p_j^(1-q).

    Zero states stay zero for q < 1; for q >= 1 they make the transform
    diverge and raise DomainError.
    """
    return _escort(_validated_probs(p), coupling_value(q), np.sum)


def coupled_density(grid: DensityGrid, q) -> DensityGrid:
    """Escort transform of a gridded density, renormalized by trapezoid."""
    f = _escort(grid.f, coupling_value(q), lambda w: np.trapezoid(w, dx=grid.dx))
    return DensityGrid(grid.x0, grid.dx, f)


def entropy_discrete(p, q) -> float:
    """Generalized entropy (-1 + sum p^(1-q))/q; Shannon entropy at the
    q -> 0 limit.  Zero states contribute zero."""
    return _entropy(_validated_probs(p), coupling_value(q), np.sum)


def entropy_density(grid: DensityGrid, q) -> float:
    """Generalized differential entropy of a gridded density."""
    return _entropy(grid.f, coupling_value(q), lambda w: np.trapezoid(w, dx=grid.dx))


def q_moments(grid: DensityGrid, q) -> tuple[float, float]:
    """Generalized mean and variance: ordinary moments of the escort
    density coupled_density(grid, q)."""
    cd = coupled_density(grid, q)
    xs = cd.xs
    mean = float(np.trapezoid(xs * cd.f, dx=cd.dx))
    var = float(np.trapezoid((xs - mean) ** 2 * cd.f, dx=cd.dx))
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise DomainError("generalized moments diverge on this grid")
    return mean, var


class StudentTMap(NamedTuple):
    """Student-t with nu dof as a family member, plus the dual coupling."""

    dist: QFamily
    q_hat: float


def student_t_map(nu) -> StudentTMap:
    """Map nu > 0 degrees of freedom to the matching family member.

    The standard t density is exactly the member with q = -2/(nu+1) and
    sigma_sq = 1 (so beta = 1/(2+q)); nu = 1 is Cauchy.  The conjugate
    coupling comes out as q_hat = 2/nu.
    """
    nu = _finite(nu, "nu")
    if nu <= 0.0:
        raise DomainError(f"degrees of freedom must be positive, got {nu}")
    q = -2.0 / (nu + 1.0)
    return StudentTMap(QGaussian(q, 0.0, 1.0), 2.0 / nu)


def kappa_map(kappa) -> float:
    """Reciprocal parameterization q = 1/kappa for kappa > 0."""
    kappa = _finite(kappa, "kappa")
    if kappa <= 0.0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    return 1.0 / kappa


def kappa_shift(kappa, n: int) -> float:
    """Index shift kappa_n = kappa + n/2 (the sequence in reciprocal form).

    Raises DomainError where n/2 is past the float range, NumericsError
    where the sum is."""
    kappa, n = _finite(kappa, "kappa"), _integer(n, "shift n")
    try:
        half = n / 2
    except OverflowError:
        raise DomainError("shift n: n/2 is past the float range") from None
    shifted = kappa + half
    if not math.isfinite(shifted):
        raise NumericsError(f"kappa + n/2 = {kappa!r} + {half!r} is past the float range")
    return shifted


def conjugate_pair(dist: QFamily, mode: str = PRESERVE_VARIANCE) -> QFamily:
    """Map a family member to its hat-conjugate partner.

    The conjugate coupling is conj_hat(q); the scale of the partner is a
    convention choice:

    * preserve-variance keeps sigma_sq;
    * preserve-beta keeps beta (sigma_sq rescales by (2+q)/(2+q_hat));
    * preserve-normalization keeps the peak amplitude matched to the
      original normalization, sigma_sq_hat = 2 sigma_sq/(2+q).

    All three are involutions up to rounding.  The q = 0 member is the
    fixed point.
    """
    _require_gaussian(dist)
    if abs(dist.q) <= COUPLING_EPS:
        return dist
    qh = conj_hat(dist.q)
    if mode == PRESERVE_VARIANCE:
        sigma_sq = dist.sigma_sq
    elif mode == PRESERVE_BETA:
        sigma_sq = 1.0 / ((2.0 + qh) * dist.beta)
    elif mode == PRESERVE_NORMALIZATION:
        sigma_sq = 2.0 * dist.sigma_sq / (2.0 + dist.q)
    else:
        raise DomainError(f"unknown conjugate mode {mode!r}")
    return QGaussian(qh, dist.mu, sigma_sq)


def coupling_phi(q, alpha) -> float:
    """Scale-free coupling of the (q, alpha) family: q/alpha for q >= 0
    and -q/(alpha + q) for -alpha < q < 0; diverges at q <= -alpha."""
    q = coupling_value(q)
    alpha = _finite(alpha, "alpha")
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    if q <= -alpha:
        raise DomainError(f"coupling {q} <= -alpha = {-alpha} is out of range")
    if q >= 0.0:
        return q / alpha
    return -q / (alpha + q)


# Draws per independent stream of sample_qgaussian
_CHUNK = 1 << 16
# Beyond this k ln V, expm1 overflows and R takes its exponential tail
_TAIL = 700.0


def sample_qgaussian(dist: QFamily, n: int, seed=None) -> np.ndarray:
    """Draw n samples; deterministic for a given seed.

    One exact draw for every q, the generalized Box-Muller method
    (Thistleton, Marsh, Nelson & Tsallis, IEEE Trans. Inf. Theory 53,
    4805, 2007): x = mu + sqrt(sigma_sq) R cos(2 pi U2) with
    R^2 = -2 ln_k(V) = -2 expm1(k ln V)/k, V = 1 - U1 in (0, 1], and
    k = 2q/(2 + q) = -q_hat, minus the conjugate coupling; where
    |k| <= COUPLING_EPS, the classical R^2 = -2 ln V.  Only the cos
    partner is kept, since for q != 0 the sin partner depends on it; it
    is taken from numpy's SIMD tangent as (t^2 - 1)/(t^2 + 1) with
    t = tan(pi (U2 - 1/2)), within 2 ulp of 1 of cos(2 pi U2).
    For q > 0, R is held below sqrt(2/k) (1 - 1e-7), strictly inside
    the support; far in a heavy tail, k ln V > 700, R is
    sqrt(-2/k) exp(k ln V / 2), and NumericsError is raised where draws
    pass the float range (near q = -2).

    The draws come in chunks of _CHUNK, chunk j from its own SFC64
    stream, the j-th child of SeedSequence(seed), which gives the chunk's
    U2 and then its U1; the chunks are filled on up to one thread per
    available core, and the values depend on the seed alone, not on the
    core count.
    """
    n = _integer(n, "sample count", 1)
    if seed is not None:
        _integer(seed, "seed", 0)
    _require_gaussian(dist)
    q = dist.q
    k = 0.0 if abs(q) <= COUPLING_EPS else -conj_hat(q)
    scale, mu = math.sqrt(dist.sigma_sq), dist.mu
    out = np.empty(n)
    chunks = -(-n // _CHUNK)
    children = np.random.SeedSequence(seed).spawn(chunks)
    workers = min(_cores(), chunks)
    # the cosine of each worker's current chunk, allocated here: what a
    # worker thread allocates stays resident in that thread's malloc arena
    scratch = np.empty((workers, min(n, _CHUNK)))

    def fill(w):
        """Chunks w, w + workers, ...; returns their non-finite count."""
        bad = 0
        for j in range(w, chunks, workers):
            o = out[j * _CHUNK:(j + 1) * _CHUNK]
            u2 = scratch[w, :o.size]
            rng = np.random.Generator(np.random.SFC64(children[j]))
            rng.random(out=u2)
            _cos_two_pi(u2, o)
            rng.random(out=o)
            with np.errstate(over="ignore"):
                _box_muller_radius(o, k)
                o *= u2
                o *= scale
                o += mu
            bad += o.size - np.count_nonzero(np.isfinite(o))
        return bad

    if workers == 1:
        bad = fill(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        # this thread fills its share alongside workers - 1 helpers
        with ThreadPoolExecutor(workers - 1) as pool:
            helped = pool.map(fill, range(1, workers))
            bad = fill(0) + sum(helped)
    if bad:
        raise NumericsError(
            f"{bad} of {n} draws at coupling {q} exceed the float range")
    return out


def _cos_two_pi(u, tmp):
    """Turn uniforms U in [0, 1) on the grid of 2^-53 into cos(2 pi U), in
    place, with tmp as scratch: (t^2 - 1)/(t^2 + 1), t = tan(pi (U - 1/2)).

    numpy's float64 tan is a SIMD loop where its cos is scalar libm, several
    times slower.  U - 1/2 is exact, and the angle in [-pi/2, pi/2) keeps
    the argument's rounding small: within 2 ulp of 1 of the exact cosine."""
    u -= 0.5
    u *= math.pi
    np.tan(u, out=u)
    u *= u
    np.add(u, 1.0, out=tmp)
    u -= 1.0
    u /= tmp


def _box_muller_radius(o, k):
    """Turn uniforms U1 in [0, 1) into the radius R of the generalized
    Box-Muller draw, in place: R^2 = -2 expm1(k ln V)/k, V = 1 - U1."""
    np.subtract(1.0, o, out=o)
    np.log(o, out=o)
    if k == 0.0:
        o *= -2.0
        np.sqrt(o, out=o)
        return
    o *= k
    if k < 0.0:
        tail = np.flatnonzero(o > _TAIL)
        far = math.sqrt(-2.0 / k) * np.exp(0.5 * o[tail])
    np.expm1(o, out=o)
    o *= -2.0 / k
    np.sqrt(o, out=o)
    if k < 0.0:
        o[tail] = far
    else:
        np.minimum(o, math.sqrt(2.0 / k) * (1.0 - 1e-7), out=o)


def _cores():
    """CPUs this process may run on."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1
