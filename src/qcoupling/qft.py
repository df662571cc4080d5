"""Deformed Fourier transform for coupled families and gridded densities.

The transform of a nonnegative integrable f at coupling q is

    F_q[f](w) = integral of f(x) * exp_q(i x w f(x)^(-q)) dx.

One kernel, v exp_q(i x w v^-q) for the density value v at x, evaluated
by qcore.exp_q_imag, serves two routes: adaptive quadrature over a
family's (or the uniform density's) plan, with exact power-substituted
tails for heavy-tailed families, and the trapezoid rule over a grid.
Inside the classical band |q| <= COUPLING_EPS the kernel keeps the first
order in q, as the closed forms do.  For q <= 0 the kernel's modulus is
bounded by f.  For q > 0 it is not: the family's coupling is conjugated
into the heavy-tail domain, the transform is evaluated there, and the
result's parameters are mapped back.  The back-mapping needs an explicit
output parameterization, so for q > 0 only q-Gaussians (alpha = 2) at
the transform coupling are accepted.  A power-tailed family at a kernel
coupling in the classical band oscillates without damping; it goes to
the double-exponential Fourier-cosine rule.

Family inputs are qdist.QFamily members a * exp_q(-beta |x|^alpha)
centred at 0: QGaussianShape(q, a, beta) builds the alpha = 2 member,
QAlphaShape(q, alpha, a, beta) any other.  Closed forms for
coupled-Gaussian and uniform inputs are implemented separately from the
numeric route so that each can check the other; a scalar frequency
gives a float back.
The uniform closed form holds verbatim for every admissible coupling
because the integrand has an elementary antiderivative whose branch
argument never crosses the negative real axis for real x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quadrature import cosine_quad, line_quad
from .errors import DomainError, PoleError, UnsupportedInputError
from .qcore import COUPLING_EPS, coupling_value, exp_q, exp_q_imag, ln_q, sinc_q
from .qdist import DensityGrid, QAlphaFamily, QFamily, c_q
from .qseq import conj_tilde, z_n

_MATCH_TOL = 1e-9

# frequencies per pass of the grid transform
_GRID_BLOCK = 16


def QGaussianShape(q, a=1.0, beta=1.0) -> QFamily:
    """Transform input a * exp_q(-beta x^2), the alpha = 2 member."""
    return QFamily(q, 2.0, a, beta)


# transform input a * exp_q(-beta |x|^alpha), 0 < alpha <= 2
QAlphaShape = QAlphaFamily


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
        w = np.asarray(ws, dtype=float)
        return self.amplitude * exp_q(self.q_out, -self.width * w * w)

    def to_result(self, ws) -> TransformResult:
        ws = np.atleast_1d(np.asarray(ws, dtype=float))
        return TransformResult(
            ws, self.evaluate(ws), "closed-form", np.zeros(ws.shape), self.q_out)


def _checked_ws(ws) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(ws, dtype=float)).ravel()
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise DomainError("ws must be a nonempty sequence of finite reals")
    return arr


def _kernel(q: float, x: np.ndarray, v: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """The transform integrand v exp_q(i x w v^-q) at nodes x with density
    values v, as a (nodes x ws) matrix; zero where v = 0."""
    out = np.zeros((x.size, ws.size), dtype=complex)
    pos = v > 0.0
    v = v[pos]
    y = (x[pos] * np.exp(-q * np.log(v)))[:, None] * ws
    out[pos] = exp_q_imag(q, y, v[:, None])
    return out


def _direct_numeric(shape, q: float, ws: np.ndarray):
    """Adaptive quadrature of the kernel over the shape's plan, all
    frequencies in one pass."""
    core, tail_power, points = shape.plan()
    return line_quad(lambda x: _kernel(q, x, shape.value(x), ws), core,
                     tail_power=tail_power, points=points)


def _cosine_numeric(shape: QFamily, ws: np.ndarray):
    """Classical kernel for a power-tailed family: by the family's even
    symmetry, the double-exponential Fourier-cosine rule over [0, inf)
    at every nonzero frequency at once."""
    core, tail_power, _ = shape.plan()
    vals = np.empty(ws.size, dtype=complex)
    errs = np.empty(ws.size, dtype=float)
    zero = ws == 0.0
    if zero.any():
        vals[zero], errs[zero] = line_quad(shape.value, core, tail_power=tail_power)
    if not zero.all():
        half, half_err = cosine_quad(shape.value, np.abs(ws[~zero]))
        vals[~zero], errs[~zero] = 2.0 * half, 2.0 * half_err
    return vals, errs


def _grid_numeric(grid: DensityGrid, q: float, ws: np.ndarray):
    f = grid.f
    if not np.all(np.isfinite(f)) or np.any(f < 0.0):
        raise DomainError("grid density must be finite and nonnegative")
    if f.size < 3:
        raise DomainError("the grid transform needs at least 3 samples")
    # the half-step rule needs an odd count to end on the same sample, so
    # the estimate compares both rules on the longest odd-length prefix
    m = f.size if f.size % 2 else f.size - 1
    xs = grid.xs
    vals = np.empty(ws.size, dtype=complex)
    errs = np.empty(ws.size, dtype=float)
    # blocks of frequencies keep the (samples x frequencies) matrix small
    for lo in range(0, ws.size, _GRID_BLOCK):
        w = ws[lo : lo + _GRID_BLOCK]
        g = _kernel(q, xs, f, w)
        full = np.trapezoid(g, dx=grid.dx, axis=0)
        prefix = full if m == f.size else np.trapezoid(g[:m], dx=grid.dx, axis=0)
        half = np.trapezoid(g[:m:2], dx=2.0 * grid.dx, axis=0)
        vals[lo : lo + w.size] = full
        errs[lo : lo + w.size] = np.abs(prefix - half) / 3.0 + 1e-15
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
    qh = -2.0 * q / (2.0 + q)
    hat_vals, hat_err = _direct_numeric(replace(shape, q=qh), qh, ws)
    # both members' closed-form parameters carry the values across
    form = qft_qgaussian_closed(shape.a, shape.beta, q)
    hat = qft_qgaussian_closed(shape.a, shape.beta, qh)
    scale = form.width / hat.width

    def back(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        pos = v > 0.0
        out[pos] = form.amplitude * exp_q(
            form.q_out, scale * ln_q(hat.q_out, v[pos] / hat.amplitude))
        return out

    err_in = hat_err + np.abs(hat_vals.imag)
    v = hat_vals.real
    out = back(v)
    spread = np.maximum(np.abs(back(v + err_in) - out), np.abs(back(v - err_in) - out))
    return out, spread + 1e-15


def qft_numeric(f, q, ws) -> TransformResult:
    """Deformed Fourier transform of f at coupling q on the grid ws.

    f is a QFamily centred at mu = 0 (QGaussianShape, QAlphaShape), a
    UniformShape, or a DensityGrid.  For q > 0 only alpha = 2 members at
    their own coupling are accepted."""
    q = coupling_value(q)
    if q <= -2.0:
        raise DomainError(f"transform coupling {q} <= -2 is outside the domain")
    ws_arr = _checked_ws(ws)

    if isinstance(f, UniformShape):
        vals, errs = _direct_numeric(f, q, ws_arr)
        q_out = z_n(q, 2) if abs(1.0 + q) > 1e-12 else None
    elif isinstance(f, QFamily):
        if f.mu != 0.0:
            raise UnsupportedInputError(
                f"the transform takes families centred at 0, got mu = {f.mu}")
        if q > COUPLING_EPS:
            vals, errs = _gaussian_hat_numeric(f, q, ws_arr)
        elif abs(q) <= COUPLING_EPS and f.plan()[1] is not None:
            vals, errs = _cosine_numeric(f, ws_arr)
        else:
            vals, errs = _direct_numeric(f, q, ws_arr)
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
        vals, errs = _grid_numeric(f, q, ws_arr)
        q_out = None
    else:
        raise UnsupportedInputError(
            f"unsupported transform input type {type(f).__name__}"
        )
    return TransformResult(ws_arr, vals, "numeric", errs, q_out)


def qft_qgaussian_closed(a, beta, q) -> ClosedFormQGaussian:
    """Closed-form transform of a * exp_q(-beta x^2):
    amplitude a*c_q/sqrt(beta), width (2+q)/(8 beta a^(2q)), output
    coupling z_1(q)."""
    f = QGaussianShape(q, a, beta)
    amp = f.a * c_q(f.q) / math.sqrt(f.beta)
    width = (2.0 + f.q) / (8.0 * f.beta * f.a ** (2.0 * f.q))
    return ClosedFormQGaussian(amp, width, z_n(f.q, 1))


def qft_uniform_closed(q, w):
    """Closed-form transform of the uniform density:
    sinc at coupling z_2(q) with argument (1+q) 2^q w."""
    q = coupling_value(q)
    if q <= -2.0:
        raise DomainError(f"coupling {q} <= -2 is outside the domain")
    if abs(1.0 + q) <= 1e-12:
        raise PoleError("uniform closed form has a pole at coupling -1")
    arg_scale = (1.0 + q) * 2.0 ** q
    return sinc_q(z_n(q, 2), arg_scale * np.asarray(w, dtype=float))


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
    """Closed-form conjugate transform of the uniform density:
    sinc at coupling -q with argument (1 - z_2(q)) 2^(-z_2(q)) w."""
    q = coupling_value(q)
    if abs(1.0 + q) <= 1e-12:
        raise PoleError("conjugate uniform closed form has a pole at coupling -1")
    q2 = z_n(q, 2)
    arg_scale = (1.0 - q2) * 2.0 ** (-q2)
    return sinc_q(-q, arg_scale * np.asarray(w, dtype=float))
