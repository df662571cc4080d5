"""Deformed Fourier transform for coupled families and gridded densities.

The transform of a nonnegative integrable f at coupling q is

    F_q[f](w) = integral of f(x) * exp_q(i x w f(x)^(-q)) dx.

One kernel, v exp_q(i x w v^-q) for the density value v at x, taken in
real arithmetic from qcore.exp_q_polar, serves two routes: adaptive
quadrature over a family's (or the uniform density's) plan, with exact
power-substituted tails for heavy-tailed families, and the trapezoid
rule over a grid.  exp_q(-i y) = conj exp_q(i y), so F(-w) = conj F(w)
for any real density: each distinct |w| is evaluated once.  Family and
uniform inputs are even, so their transform is real: twice the integral
of the kernel's real part over x >= 0.
Inside the classical band |q| <= COUPLING_EPS the kernel keeps the first
order in q, as the closed forms do.  For q <= 0 the kernel's modulus is
bounded by f.  For q > 0 it is not: the family's coupling is conjugated
into the heavy-tail domain, the transform is evaluated there, and the
result's parameters are mapped back.  The back-mapping needs an explicit
output parameterization, so for q > 0 only q-Gaussians (alpha = 2) at
the transform coupling are accepted.  A power-tailed family at a kernel
coupling in the classical band oscillates without damping; it goes to
the double-exponential Fourier-cosine rule.

Family inputs are qdist.QFamily(q, alpha, a, beta) members
a * exp_q(-beta |x|^alpha) centred at 0; QGaussianShape(q, a, beta)
builds the alpha = 2 member.  Closed forms for
coupled-Gaussian and uniform inputs are implemented separately from the
numeric route so that each can check the other; a scalar frequency
gives a float back.  Every conjugate transform is the plain one at
conj_tilde(q), which must stay above -2, so couplings in (-2, -1) fail.
The uniform closed form holds verbatim for every admissible coupling
because the integrand has an elementary antiderivative whose branch
argument never crosses the negative real axis for real x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quadrature import _EPS, _X_END, cosine_quad, line_quad
from .errors import DomainError, NumericsError, PoleError, UnsupportedInputError
from .qcore import _log_polar, exp_q, exp_q_neg_power, ln_q, sinc_q
from .qdist import DensityGrid, QFamily
from .qseq import (_POLE_TOL, COUPLING_EPS, c_q, conj_hat, conj_tilde,
                   coupling_value, z_n)

_MATCH_TOL = 1e-9

# kernel values, samples x frequencies, per pass of the grid transform
_GRID_VALUES = 1 << 16


def QGaussianShape(q, a=1.0, beta=1.0) -> QFamily:
    """Transform input a * exp_q(-beta x^2), the alpha = 2 member."""
    return QFamily(q, 2.0, a, beta)


# transform input a * exp_q(-beta |x|^alpha), 0 < alpha <= 2; the
# benchmark's transform workload builds its inputs by this name
QAlphaShape = QFamily


@dataclass(frozen=True)
class UniformShape:
    """Transform input: density 1/2 on [-1, 1], zero elsewhere."""

    def value(self, x):
        return np.where(np.abs(x) <= 1.0, 0.5, 0.0)

    def plan(self):
        """Layout of line_quad: the support is the core."""
        return 1.0, None, None


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Transform values on a caller-supplied frequency grid.

    errors[i] bounds the absolute error of values[i]; est_abs_error is
    their max, one bound for every value at once.  Both are absolute,
    not relative: where the transform is tiny (far out in frequency) an
    error can exceed the value itself.  q_out is the output coupling
    when the input is a recognized family at its own coupling
    (Gaussian-type or uniform), else None; subnormalizable flags
    q_out <= -2 (the output shape is no longer normalizable).
    """

    ws: np.ndarray
    values: np.ndarray
    method: str
    errors: np.ndarray
    q_out: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "ws", np.asarray(self.ws, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "errors", np.asarray(self.errors, dtype=float))

    @property
    def est_abs_error(self) -> float:
        return float(np.max(self.errors))

    @property
    def subnormalizable(self) -> bool:
        return self.q_out is not None and self.q_out <= -2.0


@dataclass(frozen=True)
class ClosedFormQGaussian:
    """Closed-form transform of a coupled Gaussian:
    w -> amplitude * exp_{q_out}(-width * w^2)."""

    amplitude: float
    width: float
    q_out: float

    @property
    def subnormalizable(self) -> bool:
        return self.q_out <= -2.0

    def evaluate(self, ws):
        return self.amplitude * exp_q_neg_power(self.q_out, self.width, ws)

    def to_result(self, ws) -> TransformResult:
        ws = np.atleast_1d(np.asarray(ws, dtype=float))
        return TransformResult(
            ws, self.evaluate(ws), "closed-form", np.zeros(ws.shape), self.q_out)


def _in_range(value, what: str):
    """value, which must be finite: a factor that leaves the float range
    raises NumericsError rather than spreading inf or nan."""
    if not np.isfinite(value).all():
        raise NumericsError(f"{what} leaves the float range")
    return value


def _checked_ws(ws) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(ws, dtype=float)).ravel()
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise DomainError("ws must be a nonempty sequence of finite reals")
    return arr


def _stretch(q: float, v: np.ndarray) -> np.ndarray:
    """The kernel's v^-q at density values v > 0."""
    with np.errstate(over="ignore"):
        return _in_range(np.exp(-q * np.log(v)), "the kernel's v^-q")


def _polar_kernel(q: float, xv: np.ndarray, v: np.ndarray, ws: np.ndarray):
    """Modulus v |exp_q(i y)| and angle of the kernel at y = xv w, with
    xv = x v^-q, as (nodes x ws) real matrices; past the float range
    they saturate, and the caller rejects what is not finite."""
    with np.errstate(over="ignore"):
        log_mod, angle = _log_polar(q, xv[:, None] * ws)
        r = np.exp(log_mod, out=log_mod)
    r *= v[:, None]
    return r, angle


def _kernel(q: float, x: np.ndarray, v: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Real part of the transform integrand v exp_q(i x w v^-q) at nodes
    x with density values v, as a (nodes x ws) matrix; zero where v = 0."""
    out = np.zeros((x.size, ws.size))
    pos = v > 0.0
    v = v[pos]
    r, angle = _polar_kernel(q, x[pos] * _stretch(q, v), v, ws)
    with np.errstate(invalid="ignore"):
        r *= np.cos(angle, out=angle)
    out[pos] = r
    return out


def _direct_numeric(shape, q: float, ws: np.ndarray):
    """Adaptive quadrature of the kernel over the even shape's plan, all
    frequencies w >= 0 in one pass."""
    core, tail_power, points = shape.plan()
    vals, errs = line_quad(lambda x: _kernel(q, x, shape.value(x), ws), core,
                           tail_power=tail_power, points=points)
    if tail_power is not None:
        errs = errs + _remainder_drift(shape, q, ws, tail_power)
    return vals, errs


def _remainder_drift(shape: QFamily, q: float, ws: np.ndarray, tail_power: float):
    """Bound on what line_quad's power-law remainder past X = _X_END
    misses: past X only v is a power, while y = x w v^-q of the kernel
    v exp_q(i y) goes as x^k, k = 1 - q*tail_power.  For q <= 0, exp_q(i y)
    has modulus and slope at most 1, so the miss is at most min(2, drift
    of y past X) times the family's mass 2 X v(X)/|p + 1| past X."""
    v_end = shape.value(np.array([_X_END]))[0]
    mass = 2.0 * _X_END * v_end / -(tail_power + 1.0)
    # tail_power is alpha/shape.q; this order gives k = 0 exactly for
    # alpha = 1 at the family's own coupling
    k = 1.0 - q / shape.q * shape.alpha
    if k == 0.0 or mass == 0.0:
        return 0.0
    if k > 0.0:
        # y grows without limit
        return 2.0 * mass
    # y falls to 0, so it drifts by y(X)
    with np.errstate(over="ignore"):
        drift = _X_END * ws * np.exp(-q * np.log(v_end))
    return np.minimum(2.0, drift) * mass


def _cosine_numeric(shape: QFamily, ws: np.ndarray):
    """Classical kernel for a power-tailed family: by the family's even
    symmetry, the double-exponential Fourier-cosine rule over [0, inf)
    at every nonzero frequency w >= 0 at once."""
    core, tail_power, _ = shape.plan()
    vals = np.empty(ws.size)
    errs = np.empty(ws.size, dtype=float)
    zero = ws == 0.0
    if zero.any():
        vals[zero], errs[zero] = line_quad(shape.value, core, tail_power=tail_power)
    if not zero.all():
        half, half_err = cosine_quad(shape.value, ws[~zero])
        vals[~zero], errs[~zero] = 2.0 * half, 2.0 * half_err
    return vals, errs


def _grid_numeric(grid: DensityGrid, q: float, ws: np.ndarray):
    f = grid.f
    if not np.all(np.isfinite(f)) or np.any(f < 0.0):
        raise DomainError("grid density must be finite and nonnegative")
    if f.size < 3:
        raise DomainError("the grid transform needs at least 3 samples")
    # rows: the trapezoid rule on the whole grid, on its longest
    # odd-length prefix, and at twice the step on that prefix, which must
    # end on the same sample; the last two differ by 3x the prefix error
    m = f.size if f.size % 2 else f.size - 1
    rules = np.zeros((3, f.size))
    for row, (stop, stride) in enumerate(((f.size, 1), (m, 1), (m, 2))):
        rules[row, :stop:stride] = stride * grid.dx
        rules[row, [0, stop - 1]] = 0.5 * stride * grid.dx
    # samples where f = 0 add nothing to any rule
    pos = f > 0.0
    v, rules = f[pos], rules[:, pos]
    xv = grid.xs[pos] * _stretch(q, v)
    vals = np.empty(ws.size, dtype=complex)
    errs = np.empty(ws.size, dtype=float)
    # blocks of frequencies keep the (samples x frequencies) matrices small
    block = max(1, _GRID_VALUES // v.size)
    for lo in range(0, ws.size, block):
        w = ws[lo : lo + block]
        r, angle = _polar_kernel(q, xv, v, w)
        with np.errstate(invalid="ignore"):
            re = rules @ (np.cos(angle) * r)
            im = rules @ (np.sin(angle) * r)
        vals[lo : lo + w.size] = re[0] + 1j * im[0]
        # the rounding floor of the sums, as the quadrature takes it
        rounding = (50.0 * _EPS) * (rules[0] @ r)
        errs[lo : lo + w.size] = np.hypot(re[1] - re[2], im[1] - im[2]) / 3.0 + rounding
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))):
        raise NumericsError("non-finite grid transform")
    return vals, errs


def _gaussian_hat_numeric(shape: QFamily, q: float, ws: np.ndarray):
    """q > 0 route: transform the conjugated heavy-tail member, then map
    the resulting family parameters back to the compact-support side."""
    if shape.alpha != 2.0:
        raise UnsupportedInputError(
            "for q > 0 the transformed family must have a known output "
            "parameterization; only alpha == 2 is supported"
        )
    if abs(shape.q - q) > _MATCH_TOL:
        raise UnsupportedInputError(
            "the q > 0 route conjugates the family coupling, so the family "
            f"coupling {shape.q} must equal the transform coupling {q}"
        )
    qh = conj_hat(q)
    if 2.0 + qh <= _POLE_TOL:
        raise NumericsError(
            f"transform coupling {q} conjugates to {qh}, within {_POLE_TOL:g} "
            "of the pole at -2 that the q > 0 route passes through")
    hat_vals, hat_err = _direct_numeric(replace(shape, q=qh), qh, ws)
    # both members' closed-form parameters carry the values across
    form = qft_qgaussian_closed(shape.a, shape.beta, q)
    hat = qft_qgaussian_closed(shape.a, shape.beta, qh)
    scale = form.width / hat.width

    def back(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        pos = v > 0.0
        # ln_q of a tiny v is -inf; past -1/q_out, the support edge,
        # exp_q is 0 already, and -2/q_out stays past it after rounding
        arg = np.maximum(scale * ln_q(hat.q_out, v[pos] / hat.amplitude),
                         -2.0 / form.q_out)
        out[pos] = form.amplitude * exp_q(form.q_out, arg)
        return out

    out = back(hat_vals)
    if not np.all(np.isfinite(out)):
        raise NumericsError(f"the q > 0 route maps the transform at coupling "
                            f"{q} back past the float range")
    spread = np.maximum(np.abs(back(hat_vals + hat_err) - out),
                        np.abs(back(hat_vals - hat_err) - out))
    return out, spread + 1e-15


def qft_numeric(f, q, ws) -> TransformResult:
    """Deformed Fourier transform of f at coupling q on the grid ws.

    f is a QFamily centred at mu = 0 (QGaussianShape builds one), a
    UniformShape, or a DensityGrid.  For q > 0 only alpha = 2 members at
    their own coupling are accepted."""
    q = coupling_value(q)
    if q <= -2.0:
        raise DomainError(f"transform coupling {q} <= -2 is outside the domain")
    ws_arr = _checked_ws(ws)
    # each distinct |w| once; F(-w) = conj F(w) for a real density
    mags, back = np.unique(np.abs(ws_arr), return_inverse=True)

    if isinstance(f, UniformShape):
        vals, errs = _direct_numeric(f, q, mags)
        q_out = z_n(q, 2) if abs(1.0 + q) > 1e-12 else None
    elif isinstance(f, QFamily):
        if f.mu != 0.0:
            raise UnsupportedInputError(
                f"the transform takes families centred at 0, got mu = {f.mu}")
        if q > COUPLING_EPS:
            vals, errs = _gaussian_hat_numeric(f, q, mags)
        elif abs(q) <= COUPLING_EPS and f.plan()[1] is not None:
            vals, errs = _cosine_numeric(f, mags)
        else:
            vals, errs = _direct_numeric(f, q, mags)
        matched = abs(f.q - q) <= _MATCH_TOL or (
            abs(q) <= COUPLING_EPS and abs(f.q) <= COUPLING_EPS
        )
        q_out = z_n(q, 1) if f.alpha == 2.0 and matched else None
    elif isinstance(f, DensityGrid):
        if q > COUPLING_EPS:
            raise UnsupportedInputError(
                "grid input carries no coupling parameters; the q > 0 route "
                "needs a parameterized family"
            )
        vals, errs = _grid_numeric(f, q, mags)
        q_out = None
    else:
        raise UnsupportedInputError(
            f"unsupported transform input type {type(f).__name__}"
        )
    vals = vals[back]
    neg = ws_arr < 0.0
    vals[neg] = np.conj(vals[neg])
    return TransformResult(ws_arr, vals, "numeric", errs[back], q_out)


def qft_qgaussian_closed(a, beta, q) -> ClosedFormQGaussian:
    """Closed-form transform of a * exp_q(-beta x^2):
    amplitude a*c_q/sqrt(beta), width (2+q)/(8 beta a^(2q)), output
    coupling z_1(q)."""
    f = QGaussianShape(q, a, beta)
    amp = f.a * c_q(f.q) / math.sqrt(f.beta)
    with np.errstate(over="ignore", divide="ignore"):
        width = float((2.0 + f.q) / (8.0 * f.beta * np.float64(f.a) ** (2.0 * f.q)))
    if not (math.isfinite(amp) and 0.0 < width < math.inf):
        raise NumericsError(
            f"closed form leaves the float range: amplitude {amp:g}, width {width:g}")
    return ClosedFormQGaussian(amp, width, z_n(f.q, 1))


def qft_uniform_closed(q, w):
    """Closed-form transform of the uniform density:
    sinc at coupling z_2(q) with argument (1+q) 2^q w."""
    q = coupling_value(q)
    if q <= -2.0:
        raise DomainError(f"coupling {q} <= -2 is outside the domain")
    if abs(1.0 + q) <= 1e-12:
        raise PoleError("uniform closed form has a pole at coupling -1")
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise DomainError("w must be finite")
    with np.errstate(over="ignore"):
        arg_scale = _in_range((1.0 + q) * np.float64(2.0) ** q, "argument scale")
        arg = _in_range(arg_scale * w, "the sinc argument (1 + q) 2^q w")
    return sinc_q(z_n(q, 2), arg)


def _conjugate_coupling(q) -> float:
    """conj_tilde(q), which must stay above -2 for the transform."""
    q = coupling_value(q)
    qt = conj_tilde(q)
    if qt <= -2.0:
        raise DomainError(
            f"conjugate coupling {qt} <= -2: input coupling {q} is in the "
            "excluded band (-2, -1)"
        )
    return qt


def cqft_numeric(f, q, ws) -> TransformResult:
    """Conjugate transform: map the family coupling by conj_tilde, then
    apply the deformed Fourier transform at the mapped coupling."""
    q = coupling_value(q)
    qt = _conjugate_coupling(q)
    if isinstance(f, QFamily) and abs(f.q - q) <= _MATCH_TOL:
        f = replace(f, q=qt)
    return qft_numeric(f, qt, ws)


def cqft_qgaussian_closed(a, beta, q) -> ClosedFormQGaussian:
    """Closed-form conjugate transform of a * exp_q(-beta x^2): the
    transform of the conj_tilde member; output coupling conj_hat(q)."""
    return qft_qgaussian_closed(a, beta, _conjugate_coupling(q))


def cqft_uniform_closed(q, w):
    """Closed-form conjugate transform of the uniform density, the one
    at conj_tilde(q): sinc at coupling -q, argument (1 - z_2) 2^(-z_2) w."""
    return qft_uniform_closed(_conjugate_coupling(q), w)
