"""Deformed exponential algebra for a translated coupling parameter q.

The deformed exponential is exp_q(x) = (1 + q*x)_+^(1/q), with the
classical exponential recovered as q -> 0.  The coupling q also indexes
the deformed arithmetic (q_add, q_prod, ...) under which exp_q turns
sums into products, and the generalized trigonometric functions built
from exp_q of imaginary arguments.

Branch conventions used throughout the package:

* One band rule, in one switch: |q| <= COUPLING_EPS evaluates the q -> 0
  limit through the continuation exp(z*(1 - q*z/2)), which keeps the
  first order in q, while |q*z| <= sqrt(eps); past that the exact form
  (1 + q*z)^(1/q) is used, for real and imaginary z alike.  q_prod and
  q_div are exp_q of the summed ln_q there.
* q_add and q_sub scale their terms by one power of 2, so none overflows,
  and q_add adds back the rounding of its sums: with eps = 2^-52, q_add
  is within 2 eps (|x| + |y| + |q*x*y|) + 2^-1074 and q_sub within
  eps |r| (3 + 2 |q*y|/|1 + q*y|) + 2^-1074 of the exact r; an r past
  the float range gives inf of its sign.
* exp_q off the real axis is taken at imaginary arguments only, the one
  kind the deformed Fourier kernel needs.  exp_q_polar gives exp_q(i*y)
  in real arithmetic on the polar form of 1 + i*q*y, as the real pair
  (log modulus, angle); sin_q, sinc_q and the transform kernel of qft
  are built from it.
* A nonpositive base (1 + q*x <= 0) clamps to 0 when q > 0 (compact
  support) and maps to +inf when q < 0 (the divergent end of a heavy
  tail).  These are the only two ways the base can leave (0, inf).
* exp_q, exp_q_neg_power, ln_q, sin_q, sinc_q and the arithmetic q_add,
  q_sub, q_prod and q_div evaluate arrays, the arithmetic with x and y
  broadcast against each other; scalar arguments run as one-element
  arrays and give a Python float.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, PoleError, SingularDivisorError
from .qseq import COUPLING_EPS, _POLE_TOL, _finite, _integer, coupling_value

# The band leaves its continuation past this |q*z|: there the dropped
# term q^2 z^3/3 of the exponent passes the exact form's rounding, about
# eps |z|.
_BAND_QZ = math.sqrt(np.finfo(float).eps)

# exp_q(-beta |x|^alpha) switches to log space past this beta |x|^alpha.
_LOG_SPACE_ARG = 1e300

# The smallest normal float: below it a product has lost bits
_TINY = np.finfo(float).tiny

HEAVY_TAIL = "heavy-tail"
ZERO = "zero"
COMPACT = "compact"
SUBNORMALIZABLE = "subnormalizable"


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
    x = _float_array(x, "x")
    out = kernel(q, np.atleast_1d(x), *args)
    return float(out[0]) if x.ndim == 0 else out


def _float_array(values, name: str) -> np.ndarray:
    """values as a float array; an int past the float range raises
    DomainError naming them."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise DomainError(f"{name} is past the float range") from None


def _banded(q: float, z: np.ndarray, near, exact) -> np.ndarray:
    """The one band switch: exact(z) off the classical band, else near(z)
    but exact(z) where |q*z| > _BAND_QZ; pairs stack on a leading axis."""
    # past the float range a value saturates
    with np.errstate(over="ignore"):
        if abs(q) > COUPLING_EPS:
            return exact(z)
        out = near(z)
        far = np.abs(q * z) > _BAND_QZ
        if far.any():
            out[..., far] = exact(z[far])
    return out


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
    with np.errstate(over="ignore"):
        return np.exp(_log_exp_q(q, x))


def _log_exp_q(q: float, x: np.ndarray) -> np.ndarray:
    """log exp_q(x) at finite x: -inf outside a compact support, inf at
    the divergent end of a heavy tail."""
    return _banded(q, x, lambda x: x * (1.0 - 0.5 * q * x),
                   lambda x: _log_exp_q_exact(q, q * x))


def _log_exp_q_exact(q: float, qx: np.ndarray) -> np.ndarray:
    """log (1 + qx)_+^(1/q) for q != 0 with exp_q's boundary semantics."""
    out = np.full_like(qx, -np.inf if q > 0.0 else np.inf)
    pos = qx > -1.0
    # log1p keeps the exponent accurate even when 1/q is enormous
    out[pos] = np.log1p(qx[pos]) / q
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
        log_arg = math.log(-q * beta) + alpha * np.log(np.abs(x[~near]))
        out[~near] = np.exp(log_arg / q)
    return out


def ln_q(q, x):
    """Deformed logarithm (x^q - 1)/q, the inverse of exp_q on x > 0."""
    return _scalar_or_array(_ln_q, q, x)


def _ln_q(q: float, x: np.ndarray) -> np.ndarray:
    if not (np.isfinite(x).all() and (x > 0.0).all()):
        raise DomainError("ln_q requires finite x > 0")
    lx = np.log(x)
    # expm1 avoids the x^q - 1 cancellation for small q
    return _banded(q, lx, lambda lx: lx * (1.0 + 0.5 * q * lx),
                   lambda lx: np.expm1(q * lx) / q)


def q_add(q, x, y):
    """Deformed sum x + y + q*x*y (turns exp_q products into sums)."""
    return _binary(_q_add, q, x, y)


def _q_add(q: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x, y, qxy, k = _one_scale(q, x, y, times_x=True)
    s = x + y
    t = s + qxy
    # what each sum rounded off (Knuth's TwoSum, exact) goes back in
    ys, qs = s - x, t - s
    err = (x - (s - ys)) + (y - ys) + ((s - (t - qs)) + (qxy - qs))
    return np.ldexp(t + err, k)


def q_sub(q, x, y):
    """Inverse of q_add in y: (x - y)/(1 + q*y)."""
    return _binary(_q_sub, q, x, y)


def _q_sub(q: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x, y, qy, k = _one_scale(q, x, y, times_x=False)
    den = np.ldexp(1.0, -k) + qy
    if (den == 0.0).any():
        raise SingularDivisorError("q_sub divisor 1 + q*y vanishes")
    return (x - y) / den


def _one_scale(q: float, x: np.ndarray, y: np.ndarray, times_x: bool):
    """x, y, q*y (q*x*y where times_x) from their factors' frexp parts,
    all times 2^-k, and k >= 0, the least that keeps each below 2^1021 and
    so any sum of two in range; exact where none leaves the normal range."""
    (mq, mx, my), (eq, ex, ey) = np.frexp(np.stack(np.broadcast_arrays(q, x, y)))
    mp, ep = (mq * mx * my, eq + ex + ey) if times_x else (mq * my, eq + ey)
    k = np.maximum(np.maximum(np.maximum(ex, ey), ep) - 1021, 0)
    return np.ldexp(mx, ex - k), np.ldexp(my, ey - k), np.ldexp(mp, ep - k), k


def q_add_n(q, xs) -> float:
    """Left fold of q_add over a sequence; empty input gives 0."""
    q = coupling_value(q)
    return reduce(partial(q_add, q), xs, 0.0)


def q_prod(q, x, y):
    """Deformed product [x^q + y^q - 1]_+^(1/q) for positive x, y.

    Turns ordinary sums in the exponent into products:
    exp_q(x + y) = q_prod(q, exp_q(x), exp_q(y)).
    """
    return _binary(_q_prod, q, x, y, ("operand", "operand"))


def _q_prod(q: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _exp_q_of_ln_sum(q, _positive("q_prod", np.stack((x, y))))


def q_div(q, x, y):
    """Deformed division [x^q - y^q + 1]_+^(1/q), inverse of q_prod."""
    return _binary(_q_div, q, x, y)


def _q_div(q: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    ops = _positive("q_div", np.stack((x, y)))
    # exp_q(0), which the log-space bracket would not see
    return np.where(x == y, 1.0, _exp_q_of_ln_sum(q, ops, np.array([1.0, -1.0])))


def q_prod_n(q, xs) -> float:
    """Deformed product [sum of x^q - (n - 1)]_+^(1/q) of n positive
    operands; empty input gives 1."""
    q = coupling_value(q)
    ops = _finite_array(list(xs), "operand")
    return float(_exp_q_of_ln_sum(q, _positive("q_prod", ops.reshape(-1, 1)))[0])


def _binary(kernel, q, x, y, names=("x", "y")):
    """kernel(q, x, y) through _scalar_or_array, on finite x and y
    broadcast against each other; past the float range a result
    saturates, as float arithmetic does."""
    q = coupling_value(q)
    x, y = np.broadcast_arrays(*map(_finite_array, (x, y), names))
    with np.errstate(over="ignore"):
        return _scalar_or_array(kernel, q, x, np.atleast_1d(y))


def _finite_array(values, name: str) -> np.ndarray:
    values = _float_array(values, name)
    bad = ~np.isfinite(values)
    if bad.any():
        _finite(values[bad][0], name)
    return values


def _positive(what: str, ops: np.ndarray) -> np.ndarray:
    if not (ops > 0.0).all():
        raise DomainError(f"{what} requires positive operands")
    return ops


def _exp_q_of_ln_sum(q: float, ops: np.ndarray, signs=1.0) -> np.ndarray:
    """exp_q of the sum over the first axis of signs * ln_q(ops).  Outside
    the band the bracket's displacement from 1, q times that sum, is
    summed on its own for accuracy at small couplings, or in log space
    where a power x^q passes the float range."""
    signs = np.reshape(signs, (-1,) + (1,) * (ops.ndim - 1))
    if abs(q) <= COUPLING_EPS:
        return _exp_q(q, (signs * _ln_q(q, ops)).sum(axis=0))
    e = q * np.log(ops)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shift = (signs * np.expm1(e)).sum(axis=0)
        out = np.exp(_log_exp_q_exact(q, shift))
        far = ~np.isfinite(shift)
        if far.any():
            # the bracket 1 + shift scaled by e^-m, m the largest exponent
            # q log x > 709, where the 1 is below rounding
            m = e.max(axis=0)
            scaled = (signs * np.exp(e - m)).sum(axis=0)
            log_space = np.where(scaled > 0.0, np.exp((m + np.log(scaled)) / q),
                                 0.0 if q > 0.0 else math.inf)
            out = np.where(far, log_space, out)
    return out


def power_rescale(q, x, p) -> tuple[float, float]:
    """Rewrite exp_q(x)^p as a single deformed exponential.

    Returns (q/p, p*x) so that exp_q(x)**p == exp_q(q/p, p*x); raises
    NumericsError where either leaves the float range.
    """
    q = coupling_value(q)
    x = _finite(x, "x")
    p = _finite(p, "p")
    if p == 0.0:
        raise DomainError("power_rescale requires p != 0")
    qp, px = q / p, p * x
    if not (math.isfinite(qp) and math.isfinite(px)):
        raise NumericsError(f"q/p {qp!r} or p*x {px!r} is past the float range")
    return qp, px


def exp_q_polar(q, y):
    """exp_q(i*y) = exp(log_mod) * e^(i*angle) for real finite y, as the
    pair (log_mod, angle): two floats for a scalar y, fresh real arrays
    of y's shape for an array y; a y that is not finite raises
    DomainError.  The base 1 + i*q*y never meets the branch cut, and
    exp_q(-i*y) is the conjugate of exp_q(i*y): (log_mod, -angle)."""
    q = coupling_value(q)
    y = _float_array(y, "y")
    if not np.isfinite(y).all():
        raise DomainError("y must be finite")
    pair = _log_polar(q, np.atleast_1d(y))
    return tuple(map(float, pair[:, 0]) if y.ndim == 0 else pair)


def _log_polar(q: float, y: np.ndarray) -> np.ndarray:
    """log|exp_q(i*y)| and arg exp_q(i*y), stacked on a leading axis, from
    the polar form of 1 + i*q*y; a y that is not finite is the caller's
    to reject."""
    with np.errstate(invalid="ignore"):
        # i y (1 - i q y/2): real part q y^2/2, imaginary part y
        return _banded(q, y, lambda y: np.stack((0.5 * q * y * y, y)),
                       lambda y: _polar(q, q * y))


def _polar(q: float, t: np.ndarray) -> np.ndarray:
    """log|exp_q(i*y)| and arg exp_q(i*y) from t = q*y, for q != 0,
    stacked on a leading axis."""
    # in place: these arrays can be large, and fresh ones cost page faults
    log_sq, angle = out = np.empty((2,) + t.shape)
    # log |1 + i t|^2 is log1p(t^2), accurate near t = 0, except where the
    # square overflows, past |t| ~ 1.3e154; there it is 2 log hypot(1, t).
    # The overflow flag of t*t, not a pass over the array, tells
    try:
        with np.errstate(over="raise"):
            np.log1p(t * t, out=log_sq)
    except FloatingPointError:
        np.log1p(t * t, out=log_sq)
        far = log_sq == math.inf
        log_sq[far] = 2.0 * np.log(np.hypot(1.0, t[far]))
    np.arctan(t, out=angle)
    log_sq /= 2.0 * q
    angle /= q
    return out


def sin_q(q, x):
    """Deformed sine, the imaginary part of exp_q(i*x).

    exp_q(-i*x) is the conjugate of exp_q(i*x), so the odd part
    (exp_q(ix) - exp_q(-ix))/2i is exactly that imaginary part.
    """
    return _scalar_or_array(_sin_q, q, x)


def _sin_q(q: float, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    log_mod, angle = _log_polar(q, x)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.exp(log_mod) * np.sin(angle)
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
    return _calculus(q, a, n, x, -1)


def intn_exp_q(q, a, n, x):
    """n-th antiderivative of x |-> exp_q(a*x) (integration constant 0),
    at a float or an array x.

    Closed form: a^-n * prod_{i=1..n} 1/(1 + i*q) times
    exp_{q/(1+n*q)}((1 + n*q)*a*x).  Couplings q = -1/i for i <= n are
    poles; a must be nonzero.
    """
    return _calculus(q, a, n, x, 1)


def _calculus(q, a, n, x, s: int):
    """The closed form of dn_exp_q (s = -1) and intn_exp_q (s = 1), whose
    poles are the couplings where 1 + s*i*q vanishes; NumericsError where
    the coefficient is inf, or is 0 where exp_q is inf."""
    q = coupling_value(q)
    a = _finite(a, "a")
    n = _integer(n, "order n", 1)
    if s > 0 and a == 0.0:
        raise DomainError("intn_exp_q requires a != 0")
    with np.errstate(over="ignore"):
        coeff = float(np.float64(a) ** (-s * n))
    for i in range(1, n + 1):
        den = 1.0 + s * i * q
        if abs(den) <= _POLE_TOL * i:
            kind = "anti" if s > 0 else ""
            raise PoleError(f"coupling at {kind}derivative pole q = {-s}/{i}")
        coeff = coeff / den if s > 0 else coeff * (1.0 - (i - 1) * q)
    if not math.isfinite(coeff):
        raise NumericsError(f"the order-{n} coefficient leaves the float range")
    out = _scalar_or_array(_times_rescaled_exp_q, q, x, a, 1.0 + s * n * q,
                           coeff)
    if np.isnan(out).any():
        raise NumericsError(f"the order-{n} coefficient underflows where exp_q is inf")
    return out


def _times_rescaled_exp_q(q: float, x: np.ndarray, a: float, scale: float,
                          coeff: float):
    """coeff * exp_{q/scale}(scale*a*x) at every finite x.  Where scale*a*x
    overflows, 1 + (q/scale)(scale*a*x) = 1 + q*a*x: if that is large,
    the log of exp_q is log(1 + q*a*x) scale/q, else exp_q is its limit,
    inf at +inf and 0 at -inf.  Where exp_q alone leaves the normal range
    but its log is finite, a coeff in the normal range multiplies it in
    logs."""
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        z = scale * a * x
        z[x == 0.0] = 0.0  # scale*a may overflow, and inf * 0 is nan
        log = np.where(z > 0.0, np.inf, -np.inf)
        inside = np.isfinite(z)
        log[inside] = _log_exp_q(q / scale, z[inside])
        big = ~inside & (q * a * x > 0.0)
        if big.any():
            log_qax = (math.log(abs(q)) + math.log(abs(a))
                       + np.log(np.abs(x[big])))
            log[big] = np.logaddexp(0.0, log_qax) * (scale / q)
        factor = np.exp(log)
        out = coeff * factor
        past = np.isfinite(log) & ((factor < _TINY) | (factor == np.inf))
        if abs(coeff) >= _TINY and past.any():
            out[past] = math.copysign(1.0, coeff) * np.exp(
                math.log(abs(coeff)) + log[past])
    return out
