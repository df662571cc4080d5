"""Adaptive quadrature helpers for heavy-tailed and oscillatory integrands.

Power-law tails are never truncated: the tail [X0, inf) is mapped
exactly onto (0, 1] by x = X0 * s^-m, with m chosen large enough that
the transformed endpoint behavior s^(m|p+1| - 1) is smooth for an
integrand decaying like x^p.  Everything else is plain QUADPACK.
"""

from __future__ import annotations

import math

from .errors import NumericsError

_QUAD_OPTS = dict(limit=800, epsabs=1e-11, epsrel=1e-10)


def real_quad(fn, lo, hi, **kw):
    """quad with shared defaults; returns (value, abserr)."""
    # imported here so that routes that never integrate do not load scipy
    from scipy.integrate import quad

    opts = {**_QUAD_OPTS, **kw}
    val, err = quad(fn, lo, hi, **opts)
    return val, err


def complex_quad(fn, lo, hi, **kw):
    """Integrate a complex-valued integrand by parts; (value, abserr)."""
    re, re_err = real_quad(lambda x: fn(x).real, lo, hi, **kw)
    im, im_err = real_quad(lambda x: fn(x).imag, lo, hi, **kw)
    return complex(re, im), re_err + im_err


def _tail_order(tail_power: float) -> int:
    """Substitution order making the mapped tail integrand smooth."""
    decay = -(tail_power + 1.0)
    if decay <= 0.0:
        raise NumericsError(f"tail power {tail_power} is not integrable")
    return min(64, max(1, math.ceil(2.0 / decay)))


def tail_quad(fn, x0, tail_power, side=+1, complex_valued=False):
    """Integral of fn over [x0, inf) (side=+1) or (-inf, -x0] (side=-1).

    fn must decay like |x|^tail_power with tail_power < -1 for |x| >= x0.
    """
    if x0 <= 0.0:
        raise NumericsError("tail_quad requires x0 > 0")
    m = _tail_order(tail_power)
    zero = 0j if complex_valued else 0.0

    def mapped(s):
        # the mapped integrand scales like s^(m|p+1| - 1) -> 0 as s -> 0,
        # so points past float range contribute nothing
        if s <= 0.0:
            return zero
        try:
            x = x0 * s ** -m
            jac = m * x0 * s ** -(m + 1)
        except OverflowError:
            return zero
        if not (math.isfinite(x) and math.isfinite(jac)):
            return zero
        v = fn(side * x)
        if v == 0:
            return zero
        return v * jac

    integrate = complex_quad if complex_valued else real_quad
    return integrate(mapped, 0.0, 1.0)


def line_quad(fn, core_halfwidth, tail_power=None, complex_valued=False, points=None):
    """Integral of fn over the whole line: core on [-X0, X0] plus exact
    power-substituted tails (omitted when the integrand is compactly
    supported or decays faster than any power; then the core must
    already contain everything that matters)."""
    integrate = complex_quad if complex_valued else real_quad
    val, err = integrate(fn, -core_halfwidth, core_halfwidth, points=points)
    if tail_power is not None:
        for side in (+1, -1):
            tv, te = tail_quad(fn, core_halfwidth, tail_power, side, complex_valued)
            val += tv
            err += te
    return val, err
