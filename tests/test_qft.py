"""Deformed Fourier transform: closed forms vs quadrature, symmetry,
domain handling, and the conjugate transform.

Key independent oracles:
  - classical pair F[e^{-x^2}] = sqrt(pi) e^{-w^2/4}
  - F at coupling -1 of the Cauchy-shaped member has the elementary
    value 2*pi/sqrt(4+w^2) (residue calculation, frozen here)
  - classical FT of the Cauchy pdf is e^{-|w|}
  - uniform-input transform vs its sinc closed form
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qcoupling.errors import DomainError, PoleError, UnsupportedInputError
from qcoupling.qcore import Coupling
from qcoupling.qdist import DensityGrid, QGaussian, c_q, q_alpha_mass, qgaussian_pdf
from qcoupling.qft import (
    ClosedFormQGaussian,
    QAlphaShape,
    QGaussianShape,
    UniformShape,
    cqft_numeric,
    cqft_qgaussian_closed,
    cqft_uniform_closed,
    qft_numeric,
    qft_qgaussian_closed,
    qft_uniform_closed,
)
from qcoupling.qseq import conj_hat, conj_tilde, z_n

WS = np.linspace(-5.0, 5.0, 41)


def normalized_shape(q, beta=1.0):
    return QGaussianShape(q, math.sqrt(beta) / c_q(q), beta)


class TestClosedGaussian:
    def test_classical_pair(self):
        closed = qft_qgaussian_closed(1.0, 1.0, 0.0)
        assert closed.amplitude == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert closed.width == pytest.approx(0.25, rel=1e-14)
        assert closed.q_out == 0.0
        np.testing.assert_allclose(
            closed.evaluate(WS), math.sqrt(math.pi) * np.exp(-WS ** 2 / 4), rtol=1e-13
        )

    def test_cauchy_member_elementary_value(self):
        # at coupling -1 the transform of (1+x^2)^(-1) reduces to an
        # elementary integral: int dx/(1+x^2-iwx) = 2*pi/sqrt(4+w^2)
        closed = qft_qgaussian_closed(1.0, 1.0, -1.0)
        assert closed.amplitude == pytest.approx(math.pi, rel=1e-13)
        assert closed.width == pytest.approx(0.125, rel=1e-14)
        assert closed.q_out == pytest.approx(-2.0, rel=1e-14)
        assert closed.subnormalizable
        for w in (0.0, 0.7, 1.0, 2.5, 4.0):
            want = 2.0 * math.pi / math.sqrt(4.0 + w * w)
            assert closed.evaluate(w) == pytest.approx(want, rel=1e-13)
            re, _ = quad(lambda x: (1 + x * x) / ((1 + x * x) ** 2 + (w * x) ** 2),
                         -np.inf, np.inf)
            assert re == pytest.approx(want, rel=1e-9)

    def test_width_positive_on_domain(self):
        for q in np.linspace(-1.99, 6.0, 25):
            closed = qft_qgaussian_closed(0.7, 2.3, q)
            assert closed.width > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            qft_qgaussian_closed(1.0, 1.0, -2.0)
        with pytest.raises(DomainError):
            qft_qgaussian_closed(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            qft_qgaussian_closed(1.0, 0.0, 0.5)

    def test_output_coupling_sequence(self):
        for q in (-1.5, -0.5, 0.5, 2.0):
            assert qft_qgaussian_closed(1.0, 1.0, q).q_out == pytest.approx(
                z_n(q, 1), rel=1e-14
            )

    def test_tail_exponent(self):
        # log-log slope of the transform tail approaches 2/q1
        for q in (-1.5, -1.2):
            closed = qft_qgaussian_closed(1.0, 1.0, q)
            q1 = z_n(q, 1)
            lo, hi = closed.evaluate(1e3), closed.evaluate(1e4)
            slope = (math.log(hi) - math.log(lo)) / (math.log(1e4) - math.log(1e3))
            assert slope == pytest.approx(2.0 / q1, rel=0.01)


class TestClosedUniform:
    def test_classical_sinc(self):
        for w in (0.5, 1.0, 3.0, 17.0):
            assert qft_uniform_closed(0.0, w) == pytest.approx(
                math.sin(w) / w, rel=1e-12
            )
        assert qft_uniform_closed(0.0, 0.0) == 1.0

    def test_identity_at_coupling_one(self):
        ws = np.arange(0.01, 50.0, 0.13)
        np.testing.assert_allclose(qft_uniform_closed(1.0, ws), 1.0, atol=1e-9)

    def test_sign_change_boundary(self):
        ws = np.arange(0.02, 50.0, 0.02)
        assert np.min(qft_uniform_closed(-0.3, ws)) < 0.0
        assert np.min(qft_uniform_closed(-0.4, ws)) >= 0.0

    def test_pole(self):
        with pytest.raises(PoleError):
            qft_uniform_closed(-1.0, 1.0)
        with pytest.raises(DomainError):
            qft_uniform_closed(-2.5, 1.0)


class TestNumericGaussian:
    @pytest.mark.parametrize("q", [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0])
    def test_matches_closed_form(self, q):
        shape = QGaussianShape(q, 1.0, 1.0)
        res = qft_numeric(shape, q, WS)
        closed = qft_qgaussian_closed(1.0, 1.0, q).evaluate(WS)
        rel = np.max(np.abs(res.values - closed)) / np.max(np.abs(closed))
        assert rel <= 1e-6
        assert res.est_abs_error <= 1e-8
        assert res.method == "numeric"
        assert res.q_out == pytest.approx(z_n(q, 1), rel=1e-12)

    def test_nonunit_parameters(self):
        q, a, beta = -0.8, 0.6, 2.7
        res = qft_numeric(QGaussianShape(q, a, beta), q, WS)
        closed = qft_qgaussian_closed(a, beta, q).evaluate(WS)
        assert np.max(np.abs(res.values - closed)) <= 1e-6 * np.max(np.abs(closed))

    @pytest.mark.parametrize("q", [-1.5, -0.5, 0.0, 0.5, 1.0])
    def test_normalized_input_at_zero_frequency(self, q):
        res = qft_numeric(normalized_shape(q), q, np.array([0.0]))
        assert abs(res.values[0] - 1.0) <= 1e-9

    def test_hermitian_symmetry(self):
        shape = QGaussianShape(-0.5, 1.0, 1.0)
        res = qft_numeric(shape, -0.5, WS)
        flipped = res.values[::-1]
        tol = max(res.est_abs_error, 1e-12)
        assert np.max(np.abs(res.values - np.conj(flipped))) <= 10 * tol
        assert np.max(np.abs(res.values.imag)) <= 10 * tol

    def test_subnormalizable_flag(self):
        assert qft_numeric(QGaussianShape(-1.2), -1.2, [1.0]).subnormalizable
        assert not qft_numeric(QGaussianShape(-0.5), -0.5, [1.0]).subnormalizable

    def test_classical_kernel_of_cauchy_pdf(self):
        # ordinary FT of the Cauchy density is e^{-|w|}
        shape = QGaussianShape(-1.0, 1.0 / math.pi, 1.0)
        ws = np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
        res = qft_numeric(shape, 0.0, ws)
        np.testing.assert_allclose(res.values.real, np.exp(-np.abs(ws)), atol=1e-8)
        assert res.q_out is None  # family coupling differs from the kernel's

    def test_compact_family_coupling_must_match(self):
        with pytest.raises(UnsupportedInputError):
            qft_numeric(QGaussianShape(0.5), 1.0, [0.0])

    def test_coupling_object_as_family_coupling(self):
        res = qft_numeric(QGaussianShape(Coupling(-0.5)), -0.5, [1.0])
        want = qft_numeric(QGaussianShape(-0.5), -0.5, [1.0])
        assert res.values[0] == want.values[0]

    def test_rejects_uncentred_family(self):
        with pytest.raises(UnsupportedInputError, match="mu"):
            qft_numeric(QGaussian(-0.5, 0.3, 1.0), -0.5, [1.0])

    def test_conjugate_rejects_uncentred_family(self):
        with pytest.raises(UnsupportedInputError, match="mu"):
            cqft_numeric(QGaussian(0.5, 0.3, 1.0), 0.5, [1.0])

    def test_small_coupling_within_bound(self):
        # inside |q| <= COUPLING_EPS the closed form keeps exp_q's first
        # order in q, and so does the kernel, on the line and on a grid
        # (spacing 2^-7 keeps the samples exactly symmetric)
        a, beta = 0.373, 1.562
        ws = np.linspace(-5.0, 5.0, 101)
        dx = 2.0 ** -7
        for q in (-9.1e-11, 9.1e-11):
            f = QGaussianShape(q, a, beta)
            closed = qft_qgaussian_closed(a, beta, q).evaluate(ws)
            grid = DensityGrid(-8.0, dx, f.value(-8.0 + dx * np.arange(2049)))
            for res in (qft_numeric(f, q, ws), qft_numeric(grid, q, ws)):
                assert np.all(np.abs(res.values - closed) <= res.errors)

    def test_ws_validation(self):
        with pytest.raises(DomainError):
            qft_numeric(QGaussianShape(-0.5), -0.5, [])
        with pytest.raises(DomainError):
            qft_numeric(QGaussianShape(-0.5), -0.5, [np.inf])
        with pytest.raises(DomainError):
            qft_numeric(QGaussianShape(-0.5), -2.5, [1.0])


class TestNumericUniform:
    def test_matches_closed(self):
        ws = np.linspace(-10.0, 10.0, 81)
        res = qft_numeric(UniformShape(), -0.5, ws)
        np.testing.assert_allclose(
            res.values.real, qft_uniform_closed(-0.5, ws), atol=1e-8
        )
        assert np.max(np.abs(res.values.imag)) <= 1e-9
        assert res.q_out == pytest.approx(z_n(-0.5, 2), rel=1e-14)

    @pytest.mark.parametrize("q", [-1.5, -0.3, 0.0, 0.5, 1.0, 2.0])
    def test_matches_closed_other_couplings(self, q):
        ws = np.linspace(-6.0, 6.0, 25)
        res = qft_numeric(UniformShape(), q, ws)
        np.testing.assert_allclose(
            res.values.real, qft_uniform_closed(q, ws), atol=2e-9
        )

    def test_coupling_minus_one_integrates_without_closed_form(self):
        # numeric route has no pole; only the sinc expression does
        res = qft_numeric(UniformShape(), -1.0, [0.0, 1.0])
        assert res.q_out is None
        assert abs(res.values[0] - 1.0) <= 1e-9


class TestNumericAlphaAndGrid:
    def test_alpha_mass_at_zero_frequency(self):
        fam_args = (-0.5, 1.0, 0.9, 1.3)
        shape = QAlphaShape(*fam_args)
        res = qft_numeric(shape, -0.5, [0.0])
        from qcoupling.qdist import QAlphaFamily

        want = q_alpha_mass(QAlphaFamily(*fam_args))
        assert abs(res.values[0] - want) <= 1e-8
        assert res.q_out is None

    def test_alpha_two_delegates_to_gaussian(self):
        res = qft_numeric(QAlphaShape(-0.5, 2.0, 1.0, 1.0), -0.5, WS[:9])
        gas = qft_numeric(QGaussianShape(-0.5, 1.0, 1.0), -0.5, WS[:9])
        np.testing.assert_allclose(res.values, gas.values, rtol=1e-12)
        assert res.q_out == pytest.approx(gas.q_out)

    def test_alpha_compact_kernel_unsupported(self):
        with pytest.raises(UnsupportedInputError):
            qft_numeric(QAlphaShape(0.5, 1.0), 0.5, [1.0])

    def test_grid_matches_closed_classical(self):
        xs = np.linspace(-12.0, 12.0, 24001)
        grid = DensityGrid(xs[0], xs[1] - xs[0], np.exp(-xs ** 2))
        res = qft_numeric(grid, 0.0, np.array([0.0, 1.0, 2.0]))
        want = qft_qgaussian_closed(1.0, 1.0, 0.0).evaluate(np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(res.values.real, want, atol=1e-7)
        assert res.q_out is None

    def test_grid_matches_closed_heavy(self):
        q = -0.5
        dist = QGaussian(q, 0.0, 1.0)
        xs = np.arange(-400.0, 400.0, 0.02)
        grid = DensityGrid(xs[0], xs[1] - xs[0], qgaussian_pdf(dist, xs))
        ws = np.array([0.0, 0.5, 1.5])
        res = qft_numeric(grid, q, ws)
        a = math.sqrt(dist.beta) / c_q(q)
        want = qft_qgaussian_closed(a, dist.beta, q).evaluate(ws)
        np.testing.assert_allclose(res.values.real, want, atol=5e-6)

    def test_grid_compact_kernel_unsupported(self):
        xs = np.linspace(-1.0, 1.0, 101)
        grid = DensityGrid(-1.0, xs[1] - xs[0], np.full(101, 0.5))
        with pytest.raises(UnsupportedInputError):
            qft_numeric(grid, 0.5, [1.0])

    def test_grid_error_estimate_ignores_parity(self):
        # both rules of the estimate cover the same interval whether the
        # sample count is odd or even
        dist = QGaussian(-0.5, 0.0, 1.0)
        ests = []
        for n in (12000, 12001):
            xs = np.linspace(-60.0, 60.0, n)
            grid = DensityGrid(xs[0], xs[1] - xs[0], qgaussian_pdf(dist, xs))
            ests.append(qft_numeric(grid, -0.5, WS).est_abs_error)
        assert max(ests) <= 10.0 * min(ests)

    def test_grid_needs_three_samples(self):
        grid = DensityGrid(0.0, 0.1, np.array([0.2, 0.3]))
        with pytest.raises(DomainError):
            qft_numeric(grid, -0.5, [1.0])

    def test_grid_negative_density_rejected(self):
        with pytest.raises(DomainError):
            DensityGrid(0.0, 0.1, np.array([0.1, -0.2, 0.1]))


class TestConjugateTransform:
    def test_zero_coupling_reduces_to_plain_transform(self):
        shape = QGaussianShape(0.0, 1.0, 1.0)
        a = cqft_numeric(shape, 0.0, WS[:11])
        b = qft_numeric(shape, 0.0, WS[:11])
        np.testing.assert_allclose(a.values, b.values, rtol=1e-12)

    def test_gaussian_coupling_one(self):
        shape = QGaussianShape(1.0, 1.0, 1.0)
        res = cqft_numeric(shape, 1.0, WS)
        closed = cqft_qgaussian_closed(1.0, 1.0, 1.0)
        assert closed.q_out == pytest.approx(-2.0 / 3.0, rel=1e-13)
        assert closed.amplitude == pytest.approx(c_q(-0.5), rel=1e-13)
        assert res.q_out == pytest.approx(-2.0 / 3.0, rel=1e-12)
        diff = np.max(np.abs(res.values - closed.evaluate(WS)))
        assert diff <= 1e-6 * np.max(np.abs(closed.evaluate(WS)))

    @pytest.mark.parametrize("q", [-0.5, 0.5, 2.0, 5.0])
    def test_closed_output_coupling_is_conjugate(self, q):
        assert cqft_qgaussian_closed(1.0, 1.0, q).q_out == pytest.approx(
            conj_hat(q), rel=1e-12
        )

    def test_never_subnormalizable(self):
        for q in np.linspace(-0.99, 6.0, 29):
            assert cqft_qgaussian_closed(1.0, 1.0, q).q_out > -2.0

    def test_width_inversion(self):
        # compact input -> heavy output and conversely
        assert cqft_qgaussian_closed(1.0, 1.0, 2.0).q_out < 0.0
        assert cqft_qgaussian_closed(1.0, 1.0, -0.5).q_out > 0.0

    def test_domain_errors(self):
        with pytest.raises(PoleError):
            cqft_numeric(UniformShape(), -1.0, [1.0])
        with pytest.raises(DomainError):
            cqft_numeric(QGaussianShape(-1.5), -1.5, [1.0])
        with pytest.raises(PoleError):
            cqft_qgaussian_closed(1.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            cqft_qgaussian_closed(1.0, 1.0, -1.5)
        with pytest.raises(PoleError):
            cqft_uniform_closed(-1.0, 1.0)

    def test_uniform_matches_closed(self):
        ws = np.linspace(-8.0, 8.0, 33)
        for q in (-0.5, 0.5, 1.0):
            res = cqft_numeric(UniformShape(), q, ws)
            np.testing.assert_allclose(
                res.values.real, cqft_uniform_closed(q, ws), atol=1e-8
            )

    @given(
        q=st.floats(min_value=-0.9, max_value=4.0),
        w=st.floats(min_value=-40.0, max_value=40.0),
    )
    @settings(max_examples=200)
    def test_conjugation_identity(self, q, w):
        # conjugate-transform closed form == transform at conj_tilde(q)
        if abs(1.0 + q) < 1e-6 or abs(1.0 + conj_tilde(q)) < 1e-6:
            return
        a = cqft_uniform_closed(q, w)
        b = qft_uniform_closed(conj_tilde(q), w)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_damping_regions_swapped(self):
        # conjugate transform of the uniform at compact couplings behaves
        # like the plain transform at heavy couplings: the critical
        # damping moves to conj_tilde(q) = -1/3, i.e. q = 0.5
        ws = np.arange(0.05, 50.0, 0.05)
        assert np.min(cqft_uniform_closed(0.4, ws)) < 0.0
        assert np.min(cqft_uniform_closed(0.6, ws)) >= 0.0

    def test_grid_in_heavy_band_unsupported(self):
        # conj_tilde maps (-1, 0) to couplings > 0, where grids carry no
        # parameters to conjugate
        xs = np.linspace(-5.0, 5.0, 201)
        grid = DensityGrid(xs[0], xs[1] - xs[0], np.exp(-np.abs(xs)))
        with pytest.raises(UnsupportedInputError):
            cqft_numeric(grid, -0.5, [1.0])


class TestResultRecord:
    def test_arrays_coerced(self):
        res = qft_numeric(QGaussianShape(-0.5), -0.5, [0.0, 1.0])
        assert res.ws.dtype == float
        assert res.values.dtype == complex

    def test_closed_to_result(self):
        closed = qft_qgaussian_closed(1.0, 1.0, -1.2)
        res = closed.to_result([0.0, 1.0])
        assert res.method == "closed-form"
        assert res.est_abs_error == 0.0
        assert res.subnormalizable
        np.testing.assert_allclose(res.values.real, closed.evaluate([0.0, 1.0]))


GAUSS_ERROR_CASES = [
    (q, a, beta)
    for q in (-1.99, -1.5, -0.5, 0.0, 0.5, 1.0, 3.0)
    for a in (0.8, 1.25)
    for beta in (0.8, 1.25)
]


class TestPerFrequencyErrors:
    """Every numeric value lies within its own frequency's error bound."""

    def _check(self, res, closed):
        assert res.errors.shape == res.ws.shape
        assert res.est_abs_error == res.errors.max()
        assert np.all(np.abs(res.values - closed) <= res.errors)

    @pytest.mark.parametrize("q, a, beta", GAUSS_ERROR_CASES)
    def test_gaussian(self, q, a, beta):
        res = qft_numeric(QGaussianShape(q, a, beta), q, WS)
        self._check(res, qft_qgaussian_closed(a, beta, q).evaluate(WS))

    @pytest.mark.parametrize("q", [-0.4, 0.4])
    def test_uniform(self, q):
        res = qft_numeric(UniformShape(), q, WS)
        self._check(res, qft_uniform_closed(q, WS))

    @pytest.mark.parametrize("q", [-0.5, 0.5, 2.0])
    def test_conjugate(self, q):
        # q = -0.5 maps to the compact coupling 1 and its propagated spread
        res = cqft_numeric(QGaussianShape(q, 0.8, 1.25), q, WS)
        self._check(res, cqft_qgaussian_closed(0.8, 1.25, q).evaluate(WS))

    def test_errors_differ_by_frequency(self):
        res = qft_numeric(QGaussianShape(-0.5, 1.0, 1.0), -0.5, WS)
        assert res.errors.min() < res.errors.max()

    def test_grid_errors_per_frequency(self):
        dist = QGaussian(-0.5, 0.0, 1.0)
        xs = np.linspace(-60.0, 60.0, 12001)
        grid = DensityGrid(xs[0], xs[1] - xs[0], qgaussian_pdf(dist, xs))
        res = qft_numeric(grid, -0.5, WS)
        assert res.errors.shape == WS.shape
        assert res.est_abs_error == res.errors.max()
        # Hermitian symmetry of the rule: mirrored frequencies, same error
        np.testing.assert_allclose(res.errors, res.errors[::-1], rtol=1e-6)

    def test_closed_form_errors_are_zero(self):
        res = qft_qgaussian_closed(1.0, 1.0, 0.5).to_result(WS)
        assert np.array_equal(res.errors, np.zeros(WS.size))


mp = pytest.importorskip("mpmath")

ORACLE_WS = np.array([0.0, 2.5, 5.0])


def _mp_exp_q(q, z):
    if q == 0:
        return mp.exp(z)
    base = 1 + q * z
    if mp.im(base) == 0 and mp.re(base) <= 0:
        return mp.mpf(0)  # outside a compact support
    return mp.power(base, 1 / q)


def _oracle(f, q, w, breaks):
    """30-digit transform of an even f at coupling q: twice the real part
    of the integral of f(x) exp_q(i x w f(x)^-q) over [0, breaks[-1]].
    An infinite tail past the last finite break X is integrated as
    x = X/t^3 over t in (0, 1], which leaves a smooth integrand for every
    tail here (all decay at least like x^(-4/3))."""
    q = mp.mpf(q)

    def ig(x):
        v = f(x)
        if v == 0:
            return v
        return mp.re(v * _mp_exp_q(q, 1j * x * w * v ** -q))

    if breaks[-1] != mp.inf:
        return 2 * mp.quad(ig, [0] + breaks)
    x_end = breaks[-2]
    tail = mp.quad(lambda t: ig(x_end / t ** 3) * 3 * x_end / t ** 4, [0, 1])
    return 2 * (mp.quad(ig, [0] + breaks[:-1]) + tail)


def _mp_family(qf, alpha, a, beta):
    qf = mp.mpf(qf)
    return lambda x: a * _mp_exp_q(qf, -beta * abs(x) ** alpha)


class TestBatchedRoutesAgainstOracle:
    """Each batched route against an independent 30-digit quadrature of
    the defining integral, within the route's own error estimate."""

    A, BETA = 0.9, 1.3
    TAIL = [1, 3, 10, 100, mp.inf]

    def _check(self, res, want):
        got = res.values
        err = np.abs(got - np.array([complex(v) for v in want]))
        assert np.all(err <= res.est_abs_error), (err, res.est_abs_error)

    @pytest.mark.parametrize("q", [-1.5, -0.5])
    def test_heavy_tail(self, q):
        res = qft_numeric(QGaussianShape(q, self.A, self.BETA), q, ORACLE_WS)
        f = _mp_family(q, 2, self.A, self.BETA)
        with mp.workdps(30):
            want = [_oracle(f, q, w, self.TAIL) for w in ORACLE_WS]
        self._check(res, want)

    def test_classical(self):
        res = qft_numeric(QGaussianShape(0.0, self.A, self.BETA), 0.0, ORACLE_WS)
        f = _mp_family(0.0, 2, self.A, self.BETA)
        with mp.workdps(30):
            want = [_oracle(f, 0.0, w, [1, 3, 10, mp.inf]) for w in ORACLE_WS]
        self._check(res, want)

    def test_conjugate_mapped(self):
        # the family coupling 0.5 is mapped to conj_tilde(0.5) = -1/3
        res = cqft_numeric(QGaussianShape(0.5, self.A, self.BETA), 0.5, ORACLE_WS)
        qt = conj_tilde(0.5)
        f = _mp_family(qt, 2, self.A, self.BETA)
        with mp.workdps(30):
            want = [_oracle(f, qt, w, self.TAIL) for w in ORACLE_WS]
        self._check(res, want)

    def test_compact_through_conjugate_member(self):
        # q > 0: the heavy-tail member at qh is transformed, then its
        # parameters are mapped back to the compact side
        q, a, beta = 0.5, self.A, self.BETA
        res = qft_numeric(QGaussianShape(q, a, beta), q, ORACLE_WS)
        qh = -2.0 * q / (2.0 + q)
        with mp.workdps(30):
            f, fh = _mp_family(q, 2, a, beta), _mp_family(qh, 2, a, beta)
            half = 1 / mp.sqrt(mp.mpf(q) * beta)
            amp = _oracle(f, q, 0.0, [half])
            amp_hat = _oracle(fh, qh, 0.0, self.TAIL)
            q1, q1_hat = mp.mpf(z_n(q, 1)), mp.mpf(z_n(qh, 1))
            scale = (2 + mp.mpf(q)) / (2 + mp.mpf(qh)) * mp.mpf(a) ** (2 * (qh - q))
            want = []
            for w in ORACLE_WS:
                ln = ((_oracle(fh, qh, w, self.TAIL) / amp_hat) ** q1_hat - 1) / q1_hat
                want.append(amp * _mp_exp_q(q1, scale * ln))
        self._check(res, want)

    def test_alpha_one(self):
        q = -0.5
        res = qft_numeric(QAlphaShape(q, 1.0, self.A, self.BETA), q, ORACLE_WS)
        f = _mp_family(q, 1, self.A, self.BETA)
        with mp.workdps(30):
            want = [_oracle(f, q, w, self.TAIL) for w in ORACLE_WS]
        self._check(res, want)

    @pytest.mark.parametrize("q", [-0.5, 0.3])
    def test_uniform(self, q):
        res = qft_numeric(UniformShape(), q, ORACLE_WS)
        with mp.workdps(30):
            want = [_oracle(lambda x: mp.mpf(0.5), q, w, [1]) for w in ORACLE_WS]
        self._check(res, want)


class TestBatchedRoutes:
    @pytest.mark.parametrize("q", [-1.5, 0.0, 0.5])
    def test_repeat_calls_are_bitwise_equal(self, q):
        shape = QGaussianShape(q, 0.9, 1.3)
        a = qft_numeric(shape, q, WS)
        b = qft_numeric(shape, q, WS)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.est_abs_error == b.est_abs_error

    @pytest.mark.parametrize("q", [-1.9, -1.95, -1.99])
    def test_zero_frequency_near_minus_two(self, q):
        # the tail past |x| = 1e150 is added as an analytic power law
        a, beta = 0.8, 1.7
        res = qft_numeric(QGaussianShape(q, a, beta), q, [0.0])
        want = a * c_q(q) / math.sqrt(beta)
        assert abs(res.values[0] - want) <= res.est_abs_error


def _mp_cosine_transform(q, alpha, a, beta, w):
    """20-digit integral of f(x) cos(w x) over the line for the even
    f = a exp_q(-beta |x|^alpha), q < 0: the first period by tanh-sinh
    quadrature on octave breakpoints, the rest by mpmath's quadosc."""
    with mp.workdps(20):
        q = mp.mpf(q)

        def ig(x):
            return a * (1 - q * beta * x ** alpha) ** (1 / q) * mp.cos(w * x)

        period = 2 * mp.pi / w
        octaves = [2.0 ** k for k in range(-1, 13) if 2.0 ** k < period]
        head = mp.quad(ig, [0] + octaves + [period])
        return float(2 * (head + mp.quadosc(ig, [period, mp.inf], omega=w)))


class TestFourierCosineRule:
    """The classical transform of a heavy tail, which the double-
    exponential Fourier-cosine rule computes, against two independent
    oracles."""

    @pytest.mark.parametrize("w", [1e-3, 0.05, 1.0, 5.0])
    def test_against_mpmath_quadosc(self, w):
        # small w puts most nodes far out on the tail: the rule's weakest
        # point
        q, alpha, a, beta = -0.6, 1.5, 0.9, 1.3
        res = qft_numeric(QAlphaShape(q, alpha, a, beta), 0.0, [w])
        want = _mp_cosine_transform(q, alpha, a, beta, w)
        assert abs(res.values[0] - want) <= res.errors[0]

    @pytest.mark.parametrize("q", [-1.0, -1.5, -1.9])
    def test_against_qawf(self, q):
        shape = QGaussianShape(q, 0.9, 1.3)
        res = qft_numeric(shape, 0.0, WS)
        for w, value, err in zip(WS, res.values, res.errors):
            if w == 0.0:
                continue
            half, half_err = quad(shape.value, 0.0, np.inf, weight="cos",
                                  wvar=abs(w), epsabs=1e-11, limit=800,
                                  limlst=400)
            assert abs(value - 2.0 * half) <= err + 2.0 * half_err
