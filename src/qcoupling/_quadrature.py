"""Adaptive quadrature for heavy-tailed and oscillatory integrands.

One back end, scipy's quad_vec, integrates scalar- and array-valued
integrands alike.  A transform integrates the vector of its values over
every frequency in one adaptive pass: refinement follows the largest
entry of the vector, and the error estimate is one absolute bound on the
max norm over all entries.

The whole line is folded onto x >= 0.  Power-law tails are never
truncated: the tail [X0, inf) is mapped onto (0, 1] by x = X0 * s^-m,
with m chosen large enough that the transformed endpoint behavior
s^(m|p+1| - 1) is smooth for an integrand decaying like x^p.  The map is
followed out to x = 1e150, where x^2 is still a float; past it the
integrand is a pure power law, whose remainder X f(X)/|p+1| at
X = 1e150 is added analytically and counted in the error.

The one QUADPACK call left in the package is the Fourier-cosine (QAWF)
quadrature of a heavy tail at a nonzero frequency in qft, because
quad_vec has no oscillatory weight.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

_OPTS = dict(epsabs=1e-11, epsrel=1e-10, norm="max", limit=2000)

# where the mapped tail ends and the analytic power-law remainder begins
_X_END = 1e150

_EPS = np.finfo(float).eps


def _adaptive(fn, lo, hi, points=None):
    """quad_vec with shared defaults; returns (value, abserr)."""
    # imported here so that routes that never integrate do not load scipy
    from scipy.integrate import quad_vec

    val, err, info = quad_vec(fn, lo, hi, points=points, full_output=True, **_OPTS)
    if not np.all(np.isfinite(val)) or not math.isfinite(err):
        raise NumericsError(f"non-finite integral on [{lo}, {hi}]: {info.message}")
    return val, err


def _tail_order(tail_power: float) -> int:
    """Substitution order making the mapped tail integrand smooth."""
    decay = -(tail_power + 1.0)
    if decay <= 0.0:
        raise NumericsError(f"tail power {tail_power} is not integrable")
    return min(64, max(1, math.ceil(2.0 / decay)))


def tail_quad(fn, x0, tail_power):
    """Integral of fn over [x0, inf).

    fn may be scalar- or array-valued and must decay like x^tail_power
    with tail_power < -1 for x >= x0, and be finite out to 1e150.
    """
    if not 0.0 < x0 < _X_END:
        raise NumericsError(f"tail_quad requires 0 < x0 < {_X_END:g}")
    m = _tail_order(tail_power)
    decay = -(tail_power + 1.0)

    def mapped(s):
        x = x0 * s ** -m
        # dx = m x / s ds; fn(x) * x stays small where x / s would overflow
        return (fn(x) * x) * (m / s)

    val, err = _adaptive(mapped, (x0 / _X_END) ** (1.0 / m), 1.0)
    f_end = fn(_X_END)
    rem = f_end * (_X_END / decay)
    # the remainder's error: the last octave's departure from a pure power
    # law, plus the rounding of tail_power, which 1/decay amplifies
    miss = (f_end - 2.0 ** tail_power * fn(0.5 * _X_END)) * (_X_END / decay)
    rounding = _EPS * (1.0 - tail_power) / decay
    rem_err = float(np.max(np.abs(miss) + rounding * np.abs(rem)))
    if not math.isfinite(rem_err):  # also non-finite when rem is
        raise NumericsError(
            f"tail remainder past x = {_X_END:g} at power {tail_power} "
            "leaves the float range"
        )
    return val + rem, err + rem_err


def line_quad(fn, core_halfwidth, tail_power=None, points=None):
    """Integral of fn over the whole line: core on [-X0, X0] plus exact
    power-substituted tails (omitted when the integrand is compactly
    supported or decays faster than any power; then the core must
    already contain everything that matters).  fn may be scalar- or
    array-valued; the error is an absolute max-norm bound.

    The line is folded onto x >= 0, where fn(x) + fn(-x) is integrated:
    an even integrand is refined once, and an odd part cancels pointwise
    instead of being refined to zero."""
    folded = lambda x: fn(x) + fn(-x)
    if points is not None:
        points = sorted({abs(p) for p in points})
    val, err = _adaptive(folded, 0.0, core_halfwidth, points=points)
    if tail_power is not None:
        tv, te = tail_quad(folded, core_halfwidth, tail_power)
        val, err = val + tv, err + te
    return val, err
