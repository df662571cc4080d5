"""Adaptive quadrature for heavy-tailed and oscillatory integrands.

One back end, an adaptive 21-point Gauss-Kronrod rule written in numpy,
integrates scalar- and array-valued integrands alike.  An integrand
takes a 1-d array of nodes and returns one value per node, or a
(nodes x entries) matrix; a transform passes its values at every
frequency as the entries.  Each round of refinement calls the integrand
once, on all 21 nodes of every interval that the round splits.

Errors are kept per entry.  Every interval carries QUADPACK's error
estimate for each entry, and their sum over the intervals is the error
array returned, one bound per frequency.  Each round splits the
intervals of largest error (the max over their entries) until those
left whole hold less than an eighth of the tolerance, but never so many
that one call exceeds 2^19 values; refinement stops once every entry's
error is below that eighth, or at 2000 intervals.

The whole line is folded onto x >= 0.  Power-law tails are never
truncated: the tail [X0, inf) is mapped onto (0, 1] by x = X0 * s^-m,
with m chosen large enough that the transformed endpoint behavior
s^(m|p+1| - 1) is smooth for an integrand decaying like x^p.  The map is
followed out to x = 1e150, where x^2 is still a float; past it the
integrand is a pure power law, whose remainder X f(X)/|p+1| at
X = 1e150 is added analytically and counted in the error.

A power tail under an undamped oscillation, the ordinary Fourier
transform of a heavy-tailed density, goes to the double-exponential
Fourier-cosine rule of Ooura & Mori (1999) instead.  It evaluates all
its nodes at a whole block of frequencies in one call and takes its
error from halving the step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

_EPSABS = 1e-11
_EPSREL = 1e-10
_LIMIT = 2000

# integrand values (nodes x entries) per call: bounds the memory a round
# takes when many intervals split at many frequencies
_BATCH = 1 << 19

# where the mapped tail ends and the analytic power-law remainder begins
_X_END = 1e150

_EPS = np.finfo(float).eps

# Gauss-Kronrod 10/21 abscissae on [0, 1], decreasing; the odd entries
# are the 10-point Gauss nodes (QUADPACK's qk21, Piessens et al. 1983)
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525452638, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the same rules over all 21 nodes of [-1, 1]
_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_W_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_W_GAUSS = np.zeros(21)
_W_GAUSS[1:10:2] = _WG
_W_GAUSS[11::2] = _WG[::-1]


def _per_node(v, w):
    """v scaled by the per-node factor w, for (nodes,) or (nodes x entries) v."""
    return v * (w if v.ndim == 1 else w[:, None])


def _gk21(fn, a, b):
    """The 21-point rule on every interval [a_i, b_i] from one call of fn.

    Returns the integrals, QUADPACK's error estimates and the rounding
    floors, each (intervals x entries), and the shape of one entry."""
    h = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + h[:, None] * _NODES
    f = np.asarray(fn(x.ravel()))
    if not np.all(np.isfinite(f)):
        raise NumericsError(f"non-finite integrand on [{a.min()}, {b.max()}]")
    shape = f.shape[1:]
    f = f.reshape(a.size, 21, -1)
    h = h[:, None]
    s_k = _W_KRONROD @ f
    dabs = (_W_KRONROD @ np.abs(f - 0.5 * s_k[:, None, :])) * h
    err = np.abs(s_k - _W_GAUSS @ f) * h
    # dabs * min(1, (200 err / dabs)^1.5), err itself where either is 0
    ratio = np.divide(200.0 * err, dabs, out=np.ones_like(err), where=dabs > 0.0)
    err = np.where((err > 0.0) & (dabs > 0.0),
                   dabs * np.minimum(ratio, 1.0) ** 1.5, err)
    rounding = (50.0 * _EPS) * (_W_KRONROD @ np.abs(f)) * h
    err = np.maximum(err, rounding)
    if not (np.all(np.isfinite(s_k)) and np.all(np.isfinite(err))):
        raise NumericsError(f"non-finite integral on [{a.min()}, {b.max()}]")
    return s_k * h, err, rounding, shape


def _tolerance(val):
    return max(_EPSABS, _EPSREL * float(np.abs(val.sum(axis=0)).max()))


def _adaptive(fn, lo, hi, points=None):
    """Integral of fn over [lo, hi], split first at the points inside it;
    returns (value, per-entry error)."""
    inner = sorted({float(p) for p in points or () if lo < p < hi})
    edges = np.array([lo, *inner, hi], dtype=float)
    a, b = edges[:-1], edges[1:]
    val, err, rounding, shape = _gk21(fn, a, b)
    most = max(1, _BATCH // (2 * 21 * val.shape[1]))
    tol = _tolerance(val)
    while True:
        # split the largest errors first, until the intervals left whole
        # hold less than tol / 8
        size = err.max(axis=1)
        order = np.argsort(-size, kind="stable")
        left = size.sum() - np.cumsum(size[order])
        n_split = 1 + int(np.count_nonzero(left[:-1] >= tol / 8.0))
        n_split = min(n_split, most, _LIMIT - a.size)
        split, whole = order[:n_split], order[n_split:]
        mid = 0.5 * (a[split] + b[split])
        nv, ne, nr, _ = _gk21(fn, np.concatenate((a[split], mid)),
                              np.concatenate((mid, b[split])))
        a = np.concatenate((a[whole], a[split], mid))
        b = np.concatenate((b[whole], mid, b[split]))
        val = np.concatenate((val[whole], nv))
        err = np.concatenate((err[whole], ne))
        rounding = np.concatenate((rounding[whole], nr))
        tol = _tolerance(val)
        total_err = err.sum(axis=0)
        if total_err.max() < tol / 8.0 or a.size >= _LIMIT:
            break
    total = val.sum(axis=0).reshape(shape)
    return total[()], (total_err + rounding.sum(axis=0)).reshape(shape)[()]


def _tail_order(tail_power: float) -> int:
    """Substitution order making the mapped tail integrand smooth."""
    decay = -(tail_power + 1.0)
    if decay <= 0.0:
        raise NumericsError(f"tail power {tail_power} is not integrable")
    return min(64, max(1, math.ceil(2.0 / decay)))


def tail_quad(fn, x0, tail_power):
    """Integral of fn over [x0, inf).

    fn takes a 1-d array of nodes, may be scalar- or array-valued per
    node, and must decay like x^tail_power with tail_power < -1 for
    x >= x0, and be finite out to 1e150.
    """
    if not 0.0 < x0 < _X_END:
        raise NumericsError(f"tail_quad requires 0 < x0 < {_X_END:g}")
    m = _tail_order(tail_power)
    decay = -(tail_power + 1.0)

    def mapped(s):
        x = x0 * s ** -m
        # dx = m x / s ds; fn(x) * x stays small where x / s would overflow
        return _per_node(_per_node(fn(x), x), m / s)

    val, err = _adaptive(mapped, (x0 / _X_END) ** (1.0 / m), 1.0)
    f_end, f_half = np.asarray(fn(np.array([_X_END, 0.5 * _X_END])))
    rem = f_end * (_X_END / decay)
    # the remainder's error: the last octave's departure from a pure power
    # law, plus the rounding of tail_power, which 1/decay amplifies
    miss = (f_end - 2.0 ** tail_power * f_half) * (_X_END / decay)
    rounding = _EPS * (1.0 - tail_power) / decay
    rem_err = np.abs(miss) + rounding * np.abs(rem)
    if not np.all(np.isfinite(rem_err)):  # also non-finite when rem is
        raise NumericsError(
            f"tail remainder past x = {_X_END:g} at power {tail_power} "
            "leaves the float range"
        )
    return val + rem, err + rem_err


def line_quad(fn, core_halfwidth, tail_power=None, points=None):
    """Integral of fn over the whole line: core on [-X0, X0] plus exact
    power-substituted tails (omitted when the integrand is compactly
    supported or decays faster than any power; then the core must
    already contain everything that matters).  fn takes a 1-d array of
    nodes and may be scalar- or array-valued per node; the error is an
    absolute bound per entry.

    The line is folded onto x >= 0, where fn(x) + fn(-x) is integrated:
    an even integrand is refined once, and an odd part cancels pointwise
    instead of being refined to zero."""

    def folded(x):
        v = np.asarray(fn(np.concatenate((x, -x))))
        return v[: x.size] + v[x.size :]

    if points is not None:
        points = {abs(p) for p in points}
    val, err = _adaptive(folded, 0.0, core_halfwidth, points=points)
    if tail_power is not None:
        tv, te = tail_quad(folded, core_halfwidth, tail_power)
        val, err = val + tv, err + te
    return val, err


# Ooura-Mori's map x = M phi(t) / w with M = pi / h, where
# phi(t) = t / (1 - exp(e(t))), e(t) = -2t - a (1 - e^-t) - b (e^t - 1);
# the nodes t_n = (n - 1/2) h put M phi(t_n) on the zeros of cos(M phi)
# as t grows.  Past this window of t every term is below rounding.
_DE_B = 0.25
_DE_WINDOW = (-8.0, 6.5)
_DE_STEPS = (0.1, 0.05, 0.025, 0.0125)


def _de_rule(h):
    """Ooura-Mori nodes phi(t_n) and weights cos(M phi) phi'(t_n) at step h."""
    m = math.pi / h
    a = _DE_B / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    n = np.arange(math.floor(_DE_WINDOW[0] / h), math.ceil(_DE_WINDOW[1] / h) + 1)
    t = (n - 0.5) * h
    e = -2.0 * t + a * np.expm1(-t) - _DE_B * np.expm1(t)
    de = -2.0 - a * np.exp(-t) - _DE_B * np.exp(t)
    g = -1.0 / np.expm1(e)         # 1 / (1 - exp(e))
    g1 = 1.0 / np.expm1(-e)        # g - 1, exact where g is near 1
    phi = t * g
    dphi = g + t * de * g * g1
    # cos(M phi) = cos(pi (n - 1/2) + M (phi - t)) = (-1)^n sin(M t (g - 1))
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    return m * phi, sign * np.sin(m * t * g1) * dphi


def cosine_quad(fn, ws):
    """Integral of fn(x) cos(w x) over [0, inf) for every w > 0 in ws.

    fn takes a 1-d array of nodes and must be bounded, smooth on
    (0, inf) and integrable at infinity.  Each step h of the rule
    evaluates fn once on the (nodes x ws) batch of a block of up to
    2^19 / nodes frequencies; the step is halved
    while any frequency's two last results differ by more than the
    tolerance, and that difference, with a rounding floor, is the
    error returned for each frequency."""
    ws = np.asarray(ws, dtype=float)
    vals = np.empty(ws.size)
    errs = np.empty(ws.size)
    # frequencies per batch, so that even the finest rule stays in _BATCH
    nodes = math.ceil((_DE_WINDOW[1] - _DE_WINDOW[0]) / _DE_STEPS[-1]) + 2
    block = max(1, _BATCH // nodes)
    for lo in range(0, ws.size, block):
        vals[lo : lo + block], errs[lo : lo + block] = _cosine_block(
            fn, ws[lo : lo + block])
    return vals, errs


def _cosine_block(fn, ws):
    vals = np.empty(ws.size)
    errs = np.full(ws.size, np.inf)
    active = np.arange(ws.size)
    prev = None
    for h in _DE_STEPS:
        x, wt = _de_rule(h)
        w = ws[active]
        with np.errstate(over="ignore"):
            nodes = x[:, None] / w
        terms = np.asarray(fn(nodes.ravel())).reshape(nodes.shape) * wt[:, None]
        val = (math.pi / w) * terms.sum(axis=0)
        rounding = (50.0 * _EPS * math.pi / w) * np.abs(terms).sum(axis=0)
        if not np.all(np.isfinite(val)):
            raise NumericsError("non-finite Fourier-cosine integral")
        vals[active] = val
        if prev is not None:
            errs[active] = np.abs(val - prev) + rounding
            tol = np.maximum(_EPSABS, _EPSREL * np.abs(val))
            keep = errs[active] > tol
            active, val = active[keep], val[keep]
            if active.size == 0:
                break
        prev = val
    return vals, errs
