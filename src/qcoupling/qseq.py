"""Coupling sequences, conjugations, and duals.

A single coupling q generates the two-parameter family
z_alpha_n(q) = alpha*q/(alpha + n*q); the alpha = 2 diagonal
z_n(q) = 2q/(2 + n*q) is the sequence that shows up in normalization
constants and transform outputs.  In reciprocal form the sequence is an
arithmetic progression, 1/z_n = 1/q + n/2, which is where most of its
identities come from.

Two conjugations act on the family: conj_hat (the alpha = 2, n = 1
reflection, an involution with pole at q = -2) and conj_tilde (the
alpha = 1 analogue, pole at q = -1).  translate moves between this
parameterization and the one-minus convention.

The module also holds the package's scalar validators (coupling_value,
_finite, the integer rule _integer, the pole tolerance _POLE_TOL and the
classical band COUPLING_EPS) and the normalization constant c_q, so
that these scalar functions of q run without numpy.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple

from .errors import DomainError, PoleError

# Couplings below this magnitude are treated as the q -> 0 limit.
COUPLING_EPS = 1e-10

# A denominator this close to 0 (times the index, where one enters) is a pole
_POLE_TOL = 1e-14


def _finite(value, name: str) -> float:
    try:
        value = float(value)
    except OverflowError:
        raise DomainError(f"{name} is past the float range") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _integer(value, name: str, low=None) -> int:
    """value as an int: an integer, numpy's too, but not a bool, and at
    least low where low is given; else DomainError naming it."""
    try:
        n = operator.index(value)
        if isinstance(value, bool) or low is not None and n < low:
            raise TypeError
    except TypeError:
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}") from None
    return n


def coupling_value(q) -> float:
    """Extract a validated float coupling from a float or Coupling."""
    return _finite(q, "coupling q")


def _ratio(alpha: float, q: float, n, what: str) -> float:
    """alpha*q/(alpha + n*q), the form of every map here; where a product
    overflows, 1/(1/q + n/alpha), which has no pole there."""
    if abs(n) > sys.float_info.max:
        raise DomainError("sequence index n is outside the float range")
    num, den = alpha * q, alpha + n * q
    if math.isinf(num) or math.isinf(den):
        return 1.0 / (1.0 / q + n / alpha)
    if abs(den) <= _POLE_TOL:
        raise PoleError(f"{what} has a pole here (denominator {den!r})")
    return num / den


def z_n(q, n: int) -> float:
    """Sequence member 2q/(2 + n*q); reciprocals step by n/2."""
    q = coupling_value(q)
    n = _integer(n, "sequence index n")
    return _ratio(2.0, q, n, f"z_{n}")


def z_alpha_n(q, alpha, n: int) -> float:
    """Two-parameter member alpha*q/(alpha + n*q) for 0 < alpha <= 2."""
    q = coupling_value(q)
    alpha = _finite(alpha, "alpha")
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    n = _integer(n, "sequence index n")
    return _ratio(alpha, q, n, f"z_alpha_{n}")


def conj_hat(q) -> float:
    """Hat conjugation -2q/(2 + q); involution with pole at q = -2."""
    q = coupling_value(q)
    return -_ratio(2.0, q, 1, "conj_hat")


def conj_tilde(q) -> float:
    """Tilde conjugation -q/(1 + q); involution with pole at q = -1."""
    q = coupling_value(q)
    return -_ratio(1.0, q, 1, "conj_tilde")


class IndexedCoupling(NamedTuple):
    """A signed member of the z_n sequence: sign * z_index(q)."""

    sign: int
    index: int
    value: float

    @property
    def signed_value(self) -> float:
        return self.sign * self.value


def conj_indexed(q, k: int, sign: int) -> IndexedCoupling:
    """Hat conjugation acting on the signed sequence member sign*z_k(q).

    The conjugate lands back in the same sequence with the sign flipped
    and the index shifted by the incoming sign:
    conj_hat(+z_k) = -z_{k+1} and conj_hat(-z_k) = +z_{k-1}.
    Applying conj_indexed to its own output returns the original member.
    """
    q = coupling_value(q)
    k = _integer(k, "index k")
    sign = _integer(sign, "sign")
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    out_value = conj_hat(sign * z_n(q, k))
    out_sign = -sign
    out_index = k + sign
    # out_value equals out_sign * z_{out_index}(q); report the unsigned member
    return IndexedCoupling(out_sign, out_index, out_sign * out_value)


def dual_additive(q) -> float:
    """Additive dual q -> -q."""
    return -coupling_value(q)


def dual_multiplicative(q) -> float:
    """Multiplicative dual q -> -q/(1 - q); pole at q = 1."""
    q = coupling_value(q)
    return -_ratio(1.0, q, -1, "dual_multiplicative")


def translate(qprime) -> float:
    """Map a one-minus convention parameter to this one: q = 1 - q'.
    The map is its own inverse."""
    return 1.0 - coupling_value(qprime)


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
