"""Coupled (deformed-Gaussian) distributions, escort transforms, and
generalized entropy.

One type, QFamily(q, alpha, a, beta, mu), is the coupled family
    a * exp_q(-beta |x - mu|^alpha),  0 < alpha <= 2, q > -alpha,
with its value (a scalar x gives a float), integration plan and mass.
Its alpha = 2 members are the generalized Gaussians: QGaussian(q, mu,
sigma_sq) builds the normalized one, beta = 1/((2+q) sigma_sq) and
a = sqrt(beta)/c_q(q), and sigma_sq is read back from beta.  For q > 0
the support is compact, |x - mu| < (q beta)^(-1/alpha); for q < 0 the
tails decay like |x|^(alpha/q).  QAlphaFamily builds unnormalized members.

The escort (coupled) transform raises probabilities to the power 1 - q
and renormalizes; applied to a family member it lands back in the
family, and the escort variance reproduces sigma_sq exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._quadrature import line_quad
from .errors import DomainError, NumericsError
from .qcore import COUPLING_EPS, _finite, coupling_value, exp_q, exp_q_neg_power
from .qseq import conj_hat

PRESERVE_VARIANCE = "preserve-variance"
PRESERVE_BETA = "preserve-beta"
PRESERVE_NORMALIZATION = "preserve-normalization"

# Summed squared normals are used for integer-dof chi-square draws only
# up to this many degrees of freedom; beyond that the gamma sampler is
# both exact and cheaper.
_MAX_SUMMED_NORMALS = 32


def _gammaln_halfdiff(a):
    """lgamma(a) - lgamma(a + 0.5) for a > 0, without cancellation.

    The direct difference of two lgamma values loses ~eps*lgamma(a)
    absolute accuracy, which matters when a is large (small |q|); the
    Stirling-series difference keeps the absolute error near eps.
    """
    if a < 25.0:
        return math.lgamma(a) - math.lgamma(a + 0.5)
    b = a + 0.5
    out = 0.5 - a * math.log1p(0.5 / a) - 0.5 * math.log(a)
    out += (1.0 / a - 1.0 / b) / 12.0
    out -= (a ** -3 - b ** -3) / 360.0
    out += (a ** -5 - b ** -5) / 1260.0
    return out


def c_q(q) -> float:
    """Normalization constant of the standard member: the integral of
    exp_q(-x^2) over the line.

    Three branches (poles of the Gamma pairs cancel in each):
    q > 0 compact, q = 0 classical, -2 < q < 0 heavy-tail.  The classical
    band |q| <= COUPLING_EPS integrates exp_q's continuation
    exp(-x^2 (1 + q x^2/2)), which gives sqrt(pi) (1 - 3q/8).
    """
    q = coupling_value(q)
    if q <= -2.0:
        raise DomainError(f"not normalizable for coupling {q} <= -2")
    if abs(q) <= COUPLING_EPS:
        return math.sqrt(math.pi) * (1.0 - 0.375 * q)
    if q > 0.0:
        return math.sqrt(math.pi / q) * math.exp(_gammaln_halfdiff(1.0 / q + 1.0))
    r = -1.0 / q
    return math.sqrt(math.pi * r) * math.exp(_gammaln_halfdiff(r - 0.5))


@dataclass(frozen=True)
class QFamily:
    """The coupled family a * exp_q(-beta |x - mu|^alpha) with
    0 < alpha <= 2, integrable for q > -alpha.

    The alpha = 2 members are the q-Gaussians; QGaussian, QAlphaFamily
    (and qft's QGaussianShape and QAlphaShape) build members.  Every
    field is stored as a validated float.
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
    def amplitude(self) -> float:
        return self.a

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
    if not sigma_sq > 0.0:
        raise DomainError(f"sigma_sq must be positive, got {sigma_sq!r}")
    beta = 1.0 / ((2.0 + q) * sigma_sq)
    return QFamily(q, 2.0, math.sqrt(beta) / c, beta, mu)


def QAlphaFamily(q, alpha, a=1.0, beta=1.0) -> QFamily:
    """Unnormalized member a * exp_q(-beta |x|^alpha), 0 < alpha <= 2."""
    return QFamily(q, alpha, a, beta)


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


# the unnormalized family shares the density and the mass
q_alpha_pdf = qgaussian_pdf
q_alpha_mass = qgaussian_mass


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


def coupled_discrete(p, q) -> np.ndarray:
    """Escort transform p_i^(1-q) / sum_j p_j^(1-q).

    Zero states stay zero for q < 1; for q >= 1 they make the transform
    diverge and raise DomainError.
    """
    q = coupling_value(q)
    p = _validated_probs(p)
    zero = p == 0.0
    if np.any(zero) and 1.0 - q <= 0.0:
        raise DomainError("escort with q >= 1 diverges on zero states")
    w = np.zeros_like(p)
    w[~zero] = p[~zero] ** (1.0 - q)
    z = w.sum()
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError("escort normalizer is not finite and positive")
    return w / z


def coupled_density(grid: DensityGrid, q) -> DensityGrid:
    """Escort transform of a gridded density, renormalized by trapezoid."""
    q = coupling_value(q)
    zero = grid.f == 0.0
    if np.any(zero) and 1.0 - q <= 0.0:
        raise DomainError("escort with q >= 1 diverges on zero density values")
    w = np.zeros_like(grid.f)
    w[~zero] = grid.f[~zero] ** (1.0 - q)
    z = float(np.trapezoid(w, dx=grid.dx))
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError("escort normalizer is not finite and positive")
    return DensityGrid(grid.x0, grid.dx, w / z)


def entropy_discrete(p, q) -> float:
    """Generalized entropy (-1 + sum p^(1-q))/q; Shannon entropy at the
    q -> 0 limit.  Zero states contribute zero."""
    q = coupling_value(q)
    p = _validated_probs(p)
    total = float(p.sum())
    p = p[p > 0.0]
    if abs(q) <= COUPLING_EPS:
        return float(-(p * np.log(p)).sum())
    # sum p^(1-q) - 1 = sum p*expm1(-q ln p) + (sum p - 1), which avoids
    # the catastrophic cancellation of the direct form at small |q|
    return (float((p * np.expm1(-q * np.log(p))).sum()) + (total - 1.0)) / q


def entropy_density(grid: DensityGrid, q) -> float:
    """Generalized differential entropy of a gridded density."""
    q = coupling_value(q)
    f = grid.f
    pos = f > 0.0
    if abs(q) <= COUPLING_EPS:
        w = np.zeros_like(f)
        w[pos] = f[pos] * np.log(f[pos])
        return float(-np.trapezoid(w, dx=grid.dx))
    w = np.zeros_like(f)
    w[pos] = f[pos] ** (1.0 - q)
    val = float(np.trapezoid(w, dx=grid.dx))
    if not math.isfinite(val):
        raise DomainError("entropy integral diverges on this grid")
    return (-1.0 + val) / q


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
    """Index shift kappa_n = kappa + n/2 (the sequence in reciprocal form)."""
    return _finite(kappa, "kappa") + int(n) / 2.0


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


def check_seed(seed):
    """Reject a seed that is not None or a non-negative integer."""
    if seed is None:
        return
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise DomainError(
            f"seed must be None or a non-negative integer, got {seed!r}")


def sample_qgaussian(dist: QFamily, n: int, seed=None) -> np.ndarray:
    """Draw n samples; deterministic for a given seed.

    q < 0 uses the scaled Student-t construction (normal over the square
    root of an independent chi-square; summed squared normals for small
    integer dof, gamma draws otherwise).  q = 0 is the normal path.
    q > 0 rejects from the uniform envelope over the compact support,
    with acceptance rate c_q(q) sqrt(q)/2.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"sample count must be a positive integer, got {n!r}")
    check_seed(seed)
    _require_gaussian(dist)
    n = int(n)
    rng = np.random.default_rng(seed)
    q, mu, scale = dist.q, dist.mu, math.sqrt(dist.sigma_sq)

    if abs(q) <= COUPLING_EPS:
        return mu + scale * rng.standard_normal(n)

    if q < 0.0:
        nu = -2.0 / q - 1.0
        z = rng.standard_normal(n)
        nearest = round(nu)
        if 1 <= nearest <= _MAX_SUMMED_NORMALS and abs(nu - nearest) < 1e-9:
            v = (rng.standard_normal((nearest, n)) ** 2).sum(axis=0)
            nu = float(nearest)
        else:
            v = 2.0 * rng.standard_gamma(nu / 2.0, n)
        # near q = -2 the chi-square draws underflow to 0, so most draws
        # lie beyond the float range
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = mu + scale * z * np.sqrt(nu / v)
        bad = int(np.count_nonzero(~np.isfinite(out)))
        if bad:
            raise NumericsError(
                f"{bad} of {n} draws at coupling {q} exceed the float range")
        return out

    # compact support: rejection from the uniform envelope
    beta = dist.beta
    half = 1.0 / math.sqrt(q * beta)
    rate = c_q(q) * math.sqrt(q) / 2.0
    out = np.empty(n)
    got = 0
    while got < n:
        m = min(int((n - got) / rate * 1.25) + 16, 4_000_000)
        xs = rng.uniform(-half, half, m)
        keep = rng.uniform(0.0, 1.0, m) <= exp_q(q, -beta * xs * xs)
        acc = xs[keep]
        take = min(acc.size, n - got)
        out[got : got + take] = acc[:take]
        got += take
    return mu + out
