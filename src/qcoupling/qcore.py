"""Deformed exponential algebra for a translated coupling parameter q.

The deformed exponential is exp_q(x) = (1 + q*x)_+^(1/q), with the
classical exponential recovered as q -> 0.  The coupling q also indexes
the deformed arithmetic (q_add, q_prod, ...) under which exp_q turns
sums into products, and the generalized trigonometric functions built
from exp_q of imaginary arguments.

Branch conventions used throughout the package:

* |q| <= COUPLING_EPS evaluates the q -> 0 limit through a second-order
  continuation, exp(x*(1 - q*x/2)), so the limit is smooth rather than a
  hard switch to exp(x).  For real x the continuation holds only while
  |q*x| is small; past that the exact form (1 + q*x)^(1/q) is used.
  q_prod and q_div are exp_q of the summed ln_q there.
* exp_q_imag is the one array evaluation of exp_q at an imaginary
  argument, in real arithmetic; sin_q, sinc_q and the transform kernel
  of qft are built on it.  In the band it leaves the continuation once
  |q*y| passes sqrt(eps).  The scalar exp_q_complex takes any complex
  argument and raises on its branch cut.
* A nonpositive base (1 + q*x <= 0) clamps to 0 when q > 0 (compact
  support) and maps to +inf when q < 0 (the divergent end of a heavy
  tail).  These are the only two ways the base can leave (0, inf).
* exp_q, exp_q_neg_power, ln_q, sin_q and sinc_q evaluate arrays; a
  scalar argument runs as a one-element array and gives a Python float.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, DomainError, NumericsError, PoleError, SingularDivisorError

# Couplings below this magnitude are treated as the q -> 0 limit.
COUPLING_EPS = 1e-10

# The q -> 0 continuation is used while |q*x| stays below this; beyond it
# the continuation's exponent x*(1 - q*x/2) turns over.
_SMALL_QX = 1e-3

# exp_q_imag leaves the band's continuation past this |q*y|: there its
# phase error q^2 |y|^3/3 passes the exact angle's rounding, about eps |y|.
_IMAG_QY = math.sqrt(np.finfo(float).eps)

# exp_q(-beta |x|^alpha) switches to log space past this beta |x|^alpha.
_LOG_SPACE_ARG = 1e300

# Tolerance for "exactly at a pole" checks on denominators like 1 - n*q.
_POLE_EPS = 1e-14

HEAVY_TAIL = "heavy-tail"
ZERO = "zero"
COMPACT = "compact"
SUBNORMALIZABLE = "subnormalizable"


def _finite(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def coupling_value(q) -> float:
    """Extract a validated float coupling from a float or Coupling."""
    return _finite(q, "coupling q")


def classify_coupling(q) -> str:
    """Regime of a coupling: heavy-tail, zero, compact, or subnormalizable.

    Heavy-tail couplings (-2 < q < 0) give power-law densities with
    finite generalized scale; q <= -2 decays too slowly to normalize;
    q > 0 gives compact support; |q| <= COUPLING_EPS is the classical
    limit.
    """
    q = coupling_value(q)
    if abs(q) <= COUPLING_EPS:
        return ZERO
    if q > 0.0:
        return COMPACT
    if q > -2.0:
        return HEAVY_TAIL
    return SUBNORMALIZABLE


@dataclass(frozen=True)
class Coupling:
    """A validated coupling parameter with its regime classification."""

    q: float

    def __post_init__(self):
        _finite(self.q, "coupling q")

    @property
    def regime(self) -> str:
        return classify_coupling(self.q)

    def __float__(self) -> float:
        return float(self.q)


def _scalar_or_array(kernel, q, x, *args):
    """kernel(q, x, *args) with q validated and x as a float array of at
    least one dimension: a scalar x gives a Python float back, an array x
    an array of its shape."""
    q = coupling_value(q)
    x = np.asarray(x, dtype=float)
    out = kernel(q, np.atleast_1d(x), *args)
    return float(out[0]) if x.ndim == 0 else out


def exp_q(q, x):
    """Deformed exponential (1 + q*x)_+^(1/q).

    Parameters
    ----------
    q : float or Coupling
        Coupling parameter.
    x : float or ndarray
        Argument; must be finite.

    Returns
    -------
    float or ndarray
        Nonnegative; +inf marks the divergent boundary 1 + q*x -> 0
        with q < 0, while q > 0 clamps to 0 outside the support.
    """
    return _scalar_or_array(_exp_q, q, x)


def _exp_q(q: float, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    # past the float range the value saturates to inf (or 0)
    with np.errstate(over="ignore"):
        if abs(q) > COUPLING_EPS:
            return _exp_q_exact(q, q * x)
        out = np.exp(x * (1.0 - 0.5 * q * x))
        if x.size and abs(q) * max(x.max(), -x.min()) > _SMALL_QX:
            qx = q * x
            far = np.abs(qx) > _SMALL_QX
            out[far] = _exp_q_exact(q, qx[far])
    return out


def _exp_q_exact(q: float, qx: np.ndarray) -> np.ndarray:
    """(1 + qx)_+^(1/q) for q != 0 with exp_q's boundary semantics."""
    out = np.empty_like(qx)
    pos = qx > -1.0
    # log1p keeps the exponent accurate even when 1/q is enormous
    out[pos] = np.exp(np.log1p(qx[pos]) / q)
    out[~pos] = 0.0 if q > 0.0 else np.inf
    return out


def exp_q_neg_power(q, beta, x, alpha=2.0):
    """exp_q(-beta |x|^alpha) for beta > 0 at every finite x.

    Where beta |x|^alpha passes 1e300 a heavy tail (q < 0) is the pure
    power (-q beta |x|^alpha)^(1/q), evaluated in log space so that it
    stays finite out to the largest float; any other coupling gives 0
    there.  x = +-inf gives that limit, 0, because quadrature rules may
    place nodes past the float range; NaN raises DomainError.  Scalar or
    array x.
    """
    return _scalar_or_array(_exp_q_neg_power, q, x, beta, alpha)


def _exp_q_neg_power(q: float, x: np.ndarray, beta, alpha) -> np.ndarray:
    if np.isnan(x).any():
        raise DomainError("x must not be NaN")
    with np.errstate(over="ignore"):
        arg = beta * (x * x if alpha == 2.0 else np.abs(x) ** alpha)
    near = arg <= _LOG_SPACE_ARG
    if near.all():
        return _exp_q(q, -arg)
    out = np.zeros_like(arg)
    out[near] = _exp_q(q, -arg[near])
    if q < -COUPLING_EPS:
        far = arg > _LOG_SPACE_ARG
        log_arg = math.log(-q * beta) + alpha * np.log(np.abs(x[far]))
        out[far] = np.exp(log_arg / q)
    return out


def ln_q(q, x):
    """Deformed logarithm (x^q - 1)/q, the inverse of exp_q on x > 0."""
    return _scalar_or_array(_ln_q, q, x)


def _ln_q(q: float, x: np.ndarray) -> np.ndarray:
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise DomainError("ln_q requires finite x > 0")
    if abs(q) <= COUPLING_EPS:
        lx = np.log(x)
        return lx * (1.0 + 0.5 * q * lx)
    # expm1 avoids the x^q - 1 cancellation for small q; past the float
    # range the value saturates to inf
    with np.errstate(over="ignore"):
        return np.expm1(q * np.log(x)) / q


def q_add(q, x, y) -> float:
    """Deformed sum x + y + q*x*y (turns exp_q products into sums)."""
    q = coupling_value(q)
    return _finite(x, "x") + _finite(y, "y") + q * float(x) * float(y)


def q_sub(q, x, y) -> float:
    """Inverse of q_add in y: (x - y)/(1 + q*y)."""
    q = coupling_value(q)
    x = _finite(x, "x")
    y = _finite(y, "y")
    den = 1.0 + q * y
    if den == 0.0:
        raise SingularDivisorError("q_sub divisor 1 + q*y vanishes")
    return (x - y) / den


def q_add_n(q, xs) -> float:
    """Left fold of q_add over a sequence; empty input gives 0."""
    q = coupling_value(q)
    total = 0.0
    for x in xs:
        total = q_add(q, total, x)
    return total


def q_prod(q, x, y) -> float:
    """Deformed product [x^q + y^q - 1]_+^(1/q) for positive x, y.

    Turns ordinary sums in the exponent into products:
    exp_q(x + y) = q_prod(q, exp_q(x), exp_q(y)).
    """
    return q_prod_n(q, (x, y))


def q_div(q, x, y) -> float:
    """Deformed division [x^q - y^q + 1]_+^(1/q), inverse of q_prod."""
    q = coupling_value(q)
    x = _finite(x, "x")
    y = _finite(y, "y")
    if x <= 0.0 or y <= 0.0:
        raise DomainError("q_div requires positive operands")
    return _exp_q_of_ln_sum(q, [x], [y])


def q_prod_n(q, xs) -> float:
    """Deformed product over a sequence; empty input gives 1."""
    q = coupling_value(q)
    xs = [_finite(x, "operand") for x in xs]
    if any(x <= 0.0 for x in xs):
        raise DomainError("q_prod requires positive operands")
    return _exp_q_of_ln_sum(q, xs, [])


def _exp_q_of_ln_sum(q: float, xs, ys) -> float:
    """exp_q(sum of ln_q(xs) - sum of ln_q(ys)).  Outside the band the
    bracket's displacement from 1, q times that sum, is summed on its own
    for accuracy at small couplings."""
    if abs(q) <= COUPLING_EPS:
        return exp_q(q, sum(ln_q(q, x) for x in xs)
                     - sum(ln_q(q, y) for y in ys))
    shift = (sum(math.expm1(q * math.log(x)) for x in xs)
             - sum(math.expm1(q * math.log(y)) for y in ys))
    with np.errstate(over="ignore"):
        return float(_exp_q_exact(q, np.array([shift], dtype=float))[0])


def power_rescale(q, x, p) -> tuple[float, float]:
    """Rewrite exp_q(x)^p as a single deformed exponential.

    Returns (q/p, p*x) so that exp_q(x)**p == exp_q(q/p, p*x).
    """
    q = coupling_value(q)
    x = _finite(x, "x")
    p = _finite(p, "p")
    if p == 0.0:
        raise DomainError("power_rescale requires p != 0")
    return q / p, p * x


def exp_q_complex(q, z) -> complex:
    """Principal-branch deformed exponential of a complex argument.

    The branch cut sits where 1 + q*z is on the nonpositive real axis;
    evaluation exactly on the cut raises BranchCutError.
    """
    q = coupling_value(q)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("z must be finite")
    try:
        if abs(q) <= COUPLING_EPS and abs(q * z) <= _SMALL_QX:
            out = cmath.exp(z * (1.0 - 0.5 * q * z))
        else:
            w = 1.0 + q * z
            if w.imag == 0.0 and w.real <= 0.0:
                raise BranchCutError("1 + q*z on the nonpositive real axis")
            out = w ** (1.0 / q)
    except OverflowError:
        out = complex(math.nan, math.nan)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise NumericsError(f"exp_q_complex(q={q}, z={z}) leaves the float range")
    return out


def exp_q_imag(q, y, scale=1.0):
    """scale * exp_q(i*y) for real finite y, in real arithmetic.

    The base 1 + i*q*y has modulus sqrt(1 + (q*y)^2) and angle
    arctan(q*y), and never touches the branch cut, so exp_q(i*y) is
    (1 + (q*y)^2)^(1/2q) exp(i arctan(q*y)/q), and exp_q(-i*y) is its
    conjugate.  The band |q| <= COUPLING_EPS uses the continuation
    exp(i*y*(1 - i*q*y/2)) = exp(q*y^2/2) exp(i*y), which keeps the first
    order in q while |q*y| <= sqrt(eps); past that the band too takes
    the exact form.  scale broadcasts against y; the result is a complex
    array of y's shape.
    """
    q = coupling_value(q)
    y = np.asarray(y, dtype=float)
    # past the float range the modulus saturates to inf (or 0)
    with np.errstate(over="ignore"):
        t = q * y
        if abs(q) > COUPLING_EPS:
            modulus, angle = _imag_polar(q, t)
        else:
            modulus, angle = np.exp(0.5 * q * y * y), y
            far = np.abs(t) > _IMAG_QY
            if far.any():
                exact_modulus, exact_angle = _imag_polar(q, t)
                modulus = np.where(far, exact_modulus, modulus)
                angle = np.where(far, exact_angle, angle)
        r = scale * modulus
    out = np.empty(y.shape, dtype=complex)
    out.real = r * np.cos(angle)
    out.imag = r * np.sin(angle)
    return out


def _imag_polar(q: float, t: np.ndarray):
    """Modulus and angle of exp_q(i*y) from t = q*y, for q != 0."""
    return np.exp(np.log1p(t * t) / (2.0 * q)), np.arctan(t) / q


def sin_q(q, x):
    """Deformed sine, the imaginary part of exp_q(i*x).

    exp_q(-i*x) is the conjugate of exp_q(i*x), so the odd part
    (exp_q(ix) - exp_q(-ix))/2i is exactly that imaginary part.
    """
    return _scalar_or_array(_sin_q, q, x)


def _sin_q(q: float, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    s = exp_q_imag(q, x).imag
    if not np.isfinite(s).all():
        raise NumericsError(f"sin_q at coupling {q} leaves the float range")
    return s


def sinc_q(q, x):
    """Deformed sinc: sin_q(x)/x with the removable singularity filled."""
    return _scalar_or_array(_sinc_q, q, x)


def _sinc_q(q: float, x: np.ndarray) -> np.ndarray:
    s = _sin_q(q, x)
    out = np.ones_like(s)
    nz = x != 0.0
    out[nz] = s[nz] / x[nz]
    return out


def dn_exp_q(q, a, n, x):
    """n-th derivative of x |-> exp_q(a*x), at a float or an array x.

    Closed form: a^n * prod_{i=1..n} (1 - (i-1)*q) times the rescaled
    exponential exp_{q/(1-n*q)}((1 - n*q)*a*x).  Couplings q = 1/i for
    i <= n are poles of the rescaling.
    """
    q = coupling_value(q)
    a = _finite(a, "a")
    n = _positive_int(n)
    coeff = a ** n
    for i in range(1, n + 1):
        if abs(1.0 - i * q) <= _POLE_EPS * i:
            raise PoleError(f"coupling at derivative pole q = 1/{i}")
        coeff *= 1.0 - (i - 1) * q
    scale = 1.0 - n * q
    return coeff * exp_q(q / scale, scale * a * x)


def intn_exp_q(q, a, n, x):
    """n-th antiderivative of x |-> exp_q(a*x) (integration constant 0),
    at a float or an array x.

    Closed form: a^-n * prod_{i=1..n} 1/(1 + i*q) times
    exp_{q/(1+n*q)}((1 + n*q)*a*x).  Couplings q = -1/i for i <= n are
    poles; a must be nonzero.
    """
    q = coupling_value(q)
    a = _finite(a, "a")
    n = _positive_int(n)
    if a == 0.0:
        raise DomainError("intn_exp_q requires a != 0")
    coeff = a ** -n
    for i in range(1, n + 1):
        den = 1.0 + i * q
        if abs(den) <= _POLE_EPS * i:
            raise PoleError(f"coupling at antiderivative pole q = -1/{i}")
        coeff /= den
    scale = 1.0 + n * q
    return coeff * exp_q(q / scale, scale * a * x)


def _positive_int(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise DomainError(f"order n must be a positive integer, got {n!r}")
    return int(n)
