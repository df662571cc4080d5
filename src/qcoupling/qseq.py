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
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError, PoleError
from .qcore import _finite, coupling_value

_POLE_TOL = 1e-14


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
    n = int(n)
    return _ratio(2.0, q, n, f"z_{n}")


def z_alpha_n(q, alpha, n: int) -> float:
    """Two-parameter member alpha*q/(alpha + n*q) for 0 < alpha <= 2."""
    q = coupling_value(q)
    alpha = _finite(alpha, "alpha")
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    n = int(n)
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
    k = int(k)
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
