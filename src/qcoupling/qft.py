"""Deformed Fourier transform for coupled families and gridded densities.

The transform of a nonnegative integrable f at coupling q is

    F_q[f](w) = integral of f(x) * exp_q(i x w f(x)^(-q)) dx.

For q <= 0 the integrand's modulus is bounded by f, so the transform is
computed by direct adaptive quadrature (with exact power-substituted
tails for heavy-tailed families).  For q > 0 that route is unavailable:
the family's coupling is conjugated into the heavy-tail domain, the
transform is evaluated there, and the result's parameters are mapped
back.  The back-mapping needs an explicit output parameterization, so
for q > 0 only inputs carrying a coupling parameter are accepted (and
the family coupling must equal the transform coupling).

Closed forms for coupled-Gaussian and uniform inputs are implemented
separately from the numeric route so that each can check the other.
The uniform closed form holds verbatim for every admissible coupling
because the integrand has an elementary antiderivative whose branch
argument never crosses the negative real axis for real x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import line_quad
from .errors import DomainError, PoleError, UnsupportedInputError
from .qcore import COUPLING_EPS, coupling_value, exp_q, exp_q_neg_power, ln_q, sinc_q
from .qdist import DensityGrid, c_q, integration_plan
from .qseq import conj_tilde, z_n

_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class QGaussianShape:
    """Transform input a * exp_q(-beta x^2)."""

    q: float
    a: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        q = coupling_value(self.q)
        if q <= -2.0:
            raise DomainError(f"coupling {q} <= -2 is not integrable")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise DomainError("amplitude a must be positive and finite")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError("beta must be positive and finite")

    def value(self, x: float) -> float:
        return self.a * exp_q_neg_power(self.q, self.beta, x)


@dataclass(frozen=True)
class QAlphaShape:
    """Transform input a * exp_q(-beta |x|^alpha), 0 < alpha <= 2."""

    q: float
    alpha: float
    a: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        q = coupling_value(self.q)
        if not 0.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must be in (0, 2], got {self.alpha}")
        if q <= -self.alpha:
            raise DomainError(f"coupling {q} <= -alpha = {-self.alpha} is not integrable")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise DomainError("amplitude a must be positive and finite")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DomainError("beta must be positive and finite")

    def value(self, x: float) -> float:
        return self.a * exp_q_neg_power(self.q, self.beta, x, self.alpha)


@dataclass(frozen=True)
class UniformShape:
    """Transform input: density 1/2 on [-1, 1], zero elsewhere."""

    def value(self, x: float) -> float:
        return 0.5 if abs(x) <= 1.0 else 0.0


@dataclass(frozen=True, eq=False)
class TransformResult:
    """Transform values on a caller-supplied frequency grid.

    est_abs_error bounds the error of every value at once: the adaptive
    routes integrate all frequencies in one pass and bound the max norm
    of the error over them.  It is absolute, not relative: where the
    transform is tiny (far out in frequency) it can exceed the value
    itself.  q_out is the output coupling when the input is a recognized
    family at its own coupling (Gaussian-type or uniform), else None;
    subnormalizable flags q_out <= -2 (the output shape is no longer
    normalizable).
    """

    ws: np.ndarray
    values: np.ndarray
    method: str
    est_abs_error: float
    q_out: float | None = None
    subnormalizable: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ws", np.asarray(self.ws, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))


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
        w = np.asarray(ws, dtype=float) if np.ndim(ws) > 0 else float(ws)
        return self.amplitude * exp_q(self.q_out, -self.width * w * w)

    def to_result(self, ws) -> TransformResult:
        ws = np.atleast_1d(np.asarray(ws, dtype=float))
        return TransformResult(
            ws, self.evaluate(ws), "closed-form", 0.0, self.q_out, self.subnormalizable
        )


def _checked_ws(ws) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(ws, dtype=float)).ravel()
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise DomainError("ws must be a nonempty sequence of finite reals")
    return arr


def _line_plan(shape):
    return integration_plan(shape.q, shape.beta, getattr(shape, "alpha", 2.0))


def _direct_numeric(shape, q: float, ws: np.ndarray):
    """Literal quadrature of f exp_q(i x w f^-q) for a kernel q < 0, over
    all frequencies in one adaptive pass."""
    core, tail_power, points = _line_plan(shape)
    value = shape.value
    zero = np.zeros(ws.size, dtype=complex)

    def ig(x):
        v = value(x)
        if v <= 0.0:
            return zero
        return v * _exp_q_complex_grid(q, ws * (x * math.exp(-q * math.log(v))))

    return line_quad(ig, core, tail_power=tail_power, points=points)


def _classical_numeric(shape, ws: np.ndarray):
    """Kernel coupling 0: the ordinary Fourier integral of the family.

    Power-tailed members use the even symmetry of the family and a
    Fourier-cosine quadrature over [0, inf), one frequency at a time;
    everything else decays fast enough for one pass over the core."""
    core, tail_power, points = _line_plan(shape)
    value = shape.value
    if tail_power is None:
        ig = lambda x: value(x) * np.exp(1j * x * ws)
        return line_quad(ig, core, points=points)
    from scipy.integrate import quad

    vals = np.empty(ws.size, dtype=complex)
    errs = np.empty(ws.size, dtype=float)
    for i, w in enumerate(ws):
        if w == 0.0:
            rv, e = line_quad(value, core, tail_power=tail_power)
        else:
            rv, e = quad(
                value, 0.0, np.inf, weight="cos", wvar=abs(w),
                epsabs=1e-11, limit=800, limlst=400,
            )
            rv, e = 2.0 * rv, 2.0 * e
        vals[i] = rv
        errs[i] = e
    return vals, errs


def _uniform_numeric(q: float, ws: np.ndarray):
    c = ws * 2.0 ** q
    return line_quad(lambda x: 0.5 * _exp_q_complex_grid(q, c * x), 1.0)


def _exp_q_complex_grid(q: float, y: np.ndarray) -> np.ndarray:
    """Vectorized exp_q(i y) for real y; 1 + i q y never touches the
    branch cut."""
    if abs(q) <= COUPLING_EPS:
        return np.exp(1j * y + 0.5 * q * y * y)
    z = 1.0 + 1j * (q * y)
    return np.exp(np.log(z) / q)


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
    pos = f > 0.0
    fq = np.zeros_like(f)
    fq[pos] = 1.0 if abs(q) <= COUPLING_EPS else np.exp(-q * np.log(f[pos]))
    vals = np.empty(ws.size, dtype=complex)
    errs = np.empty(ws.size, dtype=float)
    for i, w in enumerate(ws):
        g = np.zeros(f.size, dtype=complex)
        g[pos] = f[pos] * _exp_q_complex_grid(q, w * xs[pos] * fq[pos])
        full = complex(np.trapezoid(g, dx=grid.dx))
        prefix = full if m == f.size else complex(np.trapezoid(g[:m], dx=grid.dx))
        half = complex(np.trapezoid(g[:m:2], dx=2.0 * grid.dx))
        vals[i] = full
        errs[i] = abs(prefix - half) / 3.0 + 1e-15
    return vals, errs


def _gaussian_hat_numeric(shape: QGaussianShape, q: float, ws: np.ndarray):
    """q > 0 route: transform the conjugated heavy-tail member, then map
    the resulting family parameters back to the compact-support side."""
    if abs(shape.q - q) > _MATCH_TOL:
        raise UnsupportedInputError(
            "the q > 0 route conjugates the family coupling, so the family "
            f"coupling {shape.q} must equal the transform coupling {q}"
        )
    a, beta = shape.a, shape.beta
    qh = -2.0 * q / (2.0 + q)
    hat = QGaussianShape(qh, a, beta)
    hat_vals, hat_err = _direct_numeric(hat, qh, ws)

    amp_hat = a * c_q(qh) / math.sqrt(beta)
    amp = a * c_q(q) / math.sqrt(beta)
    width_hat = (2.0 + qh) / (8.0 * beta * a ** (2.0 * qh))
    width = (2.0 + q) / (8.0 * beta * a ** (2.0 * q))
    q1_hat = z_n(qh, 1)
    q1 = z_n(q, 1)
    scale = width / width_hat

    def back(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        pos = v > 0.0
        out[pos] = amp * exp_q(q1, scale * ln_q(q1_hat, v[pos] / amp_hat))
        return out

    err_in = hat_err + np.abs(hat_vals.imag)
    v = hat_vals.real
    out = back(v)
    spread = np.maximum(np.abs(back(v + err_in) - out), np.abs(back(v - err_in) - out))
    return out, spread + 1e-15


def qft_numeric(f, q, ws) -> TransformResult:
    """Deformed Fourier transform of f at coupling q on the grid ws.

    f is a QGaussianShape, QAlphaShape, UniformShape, or DensityGrid.
    For q > 0 only parameterized families at their own coupling are
    accepted (alpha families only with alpha == 2)."""
    q = coupling_value(q)
    if q <= -2.0:
        raise DomainError(f"transform coupling {q} <= -2 is outside the domain")
    ws_arr = _checked_ws(ws)
    if isinstance(f, QAlphaShape) and f.alpha == 2.0:
        f = QGaussianShape(f.q, f.a, f.beta)

    if isinstance(f, UniformShape):
        vals, errs = _uniform_numeric(q, ws_arr)
        q_out = z_n(q, 2) if abs(1.0 + q) > 1e-12 else None
    elif isinstance(f, QGaussianShape):
        if q > COUPLING_EPS:
            vals, errs = _gaussian_hat_numeric(f, q, ws_arr)
            q_out = z_n(q, 1)
        else:
            if abs(q) <= COUPLING_EPS:
                vals, errs = _classical_numeric(f, ws_arr)
            else:
                vals, errs = _direct_numeric(f, q, ws_arr)
            matched = abs(f.q - q) <= _MATCH_TOL or (
                abs(q) <= COUPLING_EPS and abs(f.q) <= COUPLING_EPS
            )
            q_out = z_n(q, 1) if matched else None
    elif isinstance(f, QAlphaShape):
        if q > COUPLING_EPS:
            raise UnsupportedInputError(
                "for q > 0 the transformed family must have a known output "
                "parameterization; only alpha == 2 is supported"
            )
        if abs(q) <= COUPLING_EPS:
            vals, errs = _classical_numeric(f, ws_arr)
        else:
            vals, errs = _direct_numeric(f, q, ws_arr)
        q_out = None
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
    sub = q_out is not None and q_out <= -2.0
    return TransformResult(ws_arr, vals, "numeric", float(np.max(errs)), q_out, sub)


def qft_qgaussian_closed(a, beta, q) -> ClosedFormQGaussian:
    """Closed-form transform of a * exp_q(-beta x^2):
    amplitude a*c_q/sqrt(beta), width (2+q)/(8 beta a^(2q)), output
    coupling z_1(q)."""
    q = coupling_value(q)
    if q <= -2.0:
        raise DomainError(f"coupling {q} <= -2 is outside the domain")
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError("amplitude a must be positive and finite")
    if not (beta > 0.0 and math.isfinite(beta)):
        raise DomainError("beta must be positive and finite")
    amp = a * c_q(q) / math.sqrt(beta)
    width = (2.0 + q) / (8.0 * beta * a ** (2.0 * q))
    return ClosedFormQGaussian(amp, width, z_n(q, 1))


def qft_uniform_closed(q, w):
    """Closed-form transform of the uniform density:
    sinc at coupling z_2(q) with argument (1+q) 2^q w."""
    q = coupling_value(q)
    if q <= -2.0:
        raise DomainError(f"coupling {q} <= -2 is outside the domain")
    if abs(1.0 + q) <= 1e-12:
        raise PoleError("uniform closed form has a pole at coupling -1")
    arg_scale = (1.0 + q) * 2.0 ** q
    w_in = np.asarray(w, dtype=float) if np.ndim(w) > 0 else float(w)
    return sinc_q(z_n(q, 2), arg_scale * w_in)


def cqft_numeric(f, q, ws) -> TransformResult:
    """Conjugate transform: map the family coupling by conj_tilde, then
    apply the deformed Fourier transform at the mapped coupling."""
    q = coupling_value(q)
    qt = conj_tilde(q)
    if qt <= -2.0:
        raise DomainError(
            f"conjugate coupling {qt} <= -2: input coupling {q} is in the "
            "excluded band (-2, -1)"
        )
    if isinstance(f, QGaussianShape):
        f = QGaussianShape(qt, f.a, f.beta) if abs(f.q - q) <= _MATCH_TOL else f
    elif isinstance(f, QAlphaShape):
        f = QAlphaShape(qt, f.alpha, f.a, f.beta) if abs(f.q - q) <= _MATCH_TOL else f
    return qft_numeric(f, qt, ws)


def cqft_qgaussian_closed(a, beta, q) -> ClosedFormQGaussian:
    """Closed-form conjugate transform of a * exp_q(-beta x^2): the
    transform of the conj_tilde member; output coupling conj_hat(q)."""
    q = coupling_value(q)
    qt = conj_tilde(q)
    if qt <= -2.0:
        raise DomainError(
            f"conjugate coupling {qt} <= -2: input coupling {q} is in the "
            "excluded band (-2, -1)"
        )
    return qft_qgaussian_closed(a, beta, qt)


def cqft_uniform_closed(q, w):
    """Closed-form conjugate transform of the uniform density:
    sinc at coupling -q with argument (1 - z_2(q)) 2^(-z_2(q)) w."""
    q = coupling_value(q)
    if abs(1.0 + q) <= 1e-12:
        raise PoleError("conjugate uniform closed form has a pole at coupling -1")
    q2 = z_n(q, 2)
    arg_scale = (1.0 - q2) * 2.0 ** (-q2)
    w_in = np.asarray(w, dtype=float) if np.ndim(w) > 0 else float(w)
    return sinc_q(-q, arg_scale * w_in)
