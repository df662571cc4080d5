"""Deformed exponential algebra: fixed values, inverse laws, identities,
and finite-difference oracles for the closed-form calculus."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcoupling import qcore
from qcoupling.errors import (
    BranchCutError,
    CouplingError,
    DomainError,
    NumericsError,
    PoleError,
    SingularDivisorError,
)
from qcoupling.qcore import (
    Coupling,
    classify_coupling,
    dn_exp_q,
    exp_q,
    exp_q_complex,
    exp_q_imag,
    exp_q_neg_power,
    intn_exp_q,
    ln_q,
    power_rescale,
    q_add,
    q_add_n,
    q_div,
    q_prod,
    q_prod_n,
    q_sub,
    sin_q,
    sinc_q,
)

# Bounded operands keep exp_q/ln_q round trips inside double range.
couplings = st.floats(min_value=-1.9, max_value=3.0)
small_reals = st.floats(min_value=-20.0, max_value=20.0)


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestExpQ:
    def test_classical_limit_exact_zero(self):
        assert exp_q(0.0, 1.0) == pytest.approx(math.e, rel=1e-15)
        assert exp_q(0.0, -2.5) == pytest.approx(math.exp(-2.5), rel=1e-15)

    def test_fixed_values(self):
        # q=1: 1 + x;  q=-1: 1/(1-x)
        assert exp_q(1.0, 3.0) == pytest.approx(4.0, rel=1e-15)
        assert exp_q(-1.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_compact_clamp(self):
        assert exp_q(1.0, -1.0) == 0.0
        assert exp_q(1.0, -2.0) == 0.0
        assert exp_q(0.5, -3.0) == 0.0

    def test_heavy_tail_divergence_sentinel(self):
        assert exp_q(-1.0, 1.0) == math.inf
        assert exp_q(-0.5, 3.0) == math.inf

    @pytest.mark.filterwarnings("error")
    def test_classical_branch_overflow_is_inf(self):
        # the small-coupling branch saturates like the q != 0 branch
        for q in (0.0, 1e-11, -1e-11):
            assert exp_q(q, 1000.0) == math.inf
        arr = exp_q(0.0, np.array([1000.0, 1.0, -1000.0]))
        assert arr[0] == math.inf
        assert arr[1] == pytest.approx(math.e, rel=1e-15)
        assert arr[2] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_small_coupling_far_from_origin_uses_exact_form(self):
        # exp(x (1 - q x/2)) turns over at x = 1/q; (1 + q x)^(1/q) does not
        assert exp_q(1e-11, 3e11) == math.inf
        assert exp_q(1e-11, 1e12) == math.inf
        assert exp_q(-1e-11, -3e11) == 0.0
        assert exp_q(1e-11, -1e12) == 0.0
        xs = np.array([3e11, 1e12, -1e12, 2.0])
        arr = exp_q(1e-11, xs)
        np.testing.assert_array_equal(arr[:3], [math.inf, math.inf, 0.0])
        assert arr[3] == exp_q(1e-11, 2.0)
        np.testing.assert_array_equal(exp_q(-1e-11, np.array([-3e11, 3e11])),
                                      [0.0, math.inf])
        # where |q x| is small the continuation is kept
        assert exp_q(1e-11, 700.0) == math.exp(700.0 * (1.0 - 0.5e-11 * 700.0))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            exp_q(0.5, math.nan)
        with pytest.raises(DomainError):
            exp_q(math.nan, 0.5)
        with pytest.raises(DomainError):
            exp_q(0.5, math.inf)

    def test_array_matches_scalar(self):
        xs = np.linspace(-3.0, 3.0, 41)
        for q in (-1.5, -1e-12, 0.7):
            arr = exp_q(q, xs)
            scal = np.array([exp_q(q, float(x)) for x in xs])
            np.testing.assert_allclose(arr, scal, rtol=1e-15)

    def test_limit_continuity_near_threshold(self):
        # The true deviation from exp(x) is ~ |q| x^2/2, so the bound
        # tightens as x shrinks; also no precision cliff at the branch
        # threshold itself.
        for q in (1e-8, -1e-8):
            for x in np.linspace(-4.0, 4.0, 17):
                assert abs(exp_q(q, x) - math.exp(x)) / math.exp(x) <= 1e-7
            for x in np.linspace(-10.0, 10.0, 21):
                assert abs(exp_q(q, x) - math.exp(x)) / math.exp(x) <= 6e-7
        for x in (-5.0, 0.3, 7.0):
            lo = exp_q(0.9999999e-10, x)
            hi = exp_q(1.0000001e-10, x)
            assert abs(lo - hi) / math.exp(x) < 1e-12

    @given(q=couplings, x=small_reals)
    @settings(max_examples=300)
    def test_ln_q_inverts_exp_q(self, q, x):
        y = exp_q(q, x)
        if not (1e-140 < y < 1e140):
            return
        assert rel_close(ln_q(q, y), x, 1e-11)

    @given(q=couplings, y=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=300)
    def test_exp_q_inverts_ln_q(self, q, y):
        x = ln_q(q, y)
        if not math.isfinite(x) or abs(x) > 1e12:
            return
        if 1.0 + q * x < 1e-4:  # support edge: round trip is ill-conditioned
            return
        assert rel_close(exp_q(q, x), y, 1e-11)


class TestExpQNegPower:
    @pytest.mark.filterwarnings("error")
    def test_heavy_tail_stays_finite_to_largest_float(self):
        # (1 + |q| beta x^2)^(1/q) is a pure power once beta x^2 >> 1
        for q, beta in ((-1.9, 1.0), (-1.99, 0.3), (-0.5, 2.0)):
            for x in (1e160, 1e200, 1e308):
                want = math.exp(math.log(-q * beta * x) / q + math.log(x) / q)
                got = exp_q_neg_power(q, beta, x)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-320)
            assert exp_q_neg_power(-1.9, beta, 1e200) > 0.0

    def test_switch_to_log_space_is_continuous(self):
        x = math.sqrt(1e300)
        lo = exp_q_neg_power(-1.5, 1.0, x * (1.0 - 1e-15))
        hi = exp_q_neg_power(-1.5, 1.0, x * (1.0 + 1e-15))
        assert hi == pytest.approx(lo, rel=1e-12)

    def test_other_couplings_vanish_far_out(self):
        for q in (0.0, 1e-11, 0.5):
            assert exp_q_neg_power(q, 1.0, 1e200) == 0.0
        assert exp_q_neg_power(-0.5, 1.0, math.inf) == 0.0

    def test_nan_raises_and_infinity_vanishes(self):
        for q in (-0.5, 0.0, 0.5):
            with pytest.raises(DomainError):
                exp_q_neg_power(q, 1.0, math.nan)
            with pytest.raises(DomainError):
                exp_q_neg_power(q, 1.0, np.array([0.0, math.nan]))
            np.testing.assert_array_equal(
                exp_q_neg_power(q, 1.0, np.array([-math.inf, math.inf])), 0.0)

    def test_matches_exp_q_and_array_matches_scalar(self):
        xs = np.array([-1e200, -3.0, 0.0, 0.7, 1e160, 1e308])
        for q, alpha in ((-1.5, 2.0), (-0.5, 1.0), (0.0, 2.0), (0.8, 1.5)):
            arr = exp_q_neg_power(q, 1.3, xs, alpha)
            scal = [exp_q_neg_power(q, 1.3, float(x), alpha) for x in xs]
            np.testing.assert_allclose(arr, scal, rtol=1e-14, atol=0.0)
            assert arr[3] == exp_q(q, -1.3 * 0.7 ** alpha)


class TestLnQ:
    def test_domain(self):
        with pytest.raises(DomainError):
            ln_q(0.5, 0.0)
        with pytest.raises(DomainError):
            ln_q(0.5, -1.0)

    def test_classical_limit(self):
        assert ln_q(0.0, math.e) == pytest.approx(1.0, rel=1e-15)

    def test_fixed_value(self):
        # q=1: x - 1
        assert ln_q(1.0, 4.0) == pytest.approx(3.0, rel=1e-15)


def _prod_div_condition(q, x, y, p):
    """First-order relative rounding error of q_div(q, q_prod(q, x, y), y).

    Both functions work on the brackets 1 + sum of expm1(q log z) for z
    in (x, y) and (p, y).  Rounding q log z and expm1 costs each term an
    absolute error of eps (2 z^q |q log z| + |z^q - 1|), and q_prod's
    last step exp(log1p(.)/q) costs p a relative eps (1 + |log p|), which
    is |q| times that in p^q.  q_div's bracket p^q - y^q + 1 = x^q
    cancels where x^q is small next to p^q and y^q, and the power 1/q
    turns its absolute error e into a relative error e / (|q| x^q) of
    the result.  The classical band goes through exp_q and ln_q of
    operands near 1, whose rounding stays far below the 1e-11 floor.
    """
    if abs(q) <= qcore.COUPLING_EPS:
        return 0.0
    eps = np.finfo(float).eps

    def term(z):
        zq = math.exp(q * math.log(z))
        return eps * (2.0 * zq * abs(q * math.log(z)) + abs(zq - 1.0))

    pq = math.exp(q * math.log(p))
    bracket = (term(x) + 2.0 * term(y) + term(p)
               + abs(q) * eps * (1.0 + abs(math.log(p))) * pq)
    return bracket / (abs(q) * math.exp(q * math.log(x)))


class TestDeformedArithmetic:
    @given(q=couplings, x=small_reals, y=small_reals)
    @settings(max_examples=300)
    def test_add_sub_round_trip(self, q, x, y):
        if abs(1.0 + q * y) < 1e-3:
            return
        s = q_add(q, x, y)
        assert rel_close(q_sub(q, s, y), x, 1e-12)

    @given(q=couplings, x=st.floats(min_value=0.1, max_value=10.0), y=st.floats(min_value=0.1, max_value=10.0))
    @example(q=3.0, x=0.1, y=8.0)
    @settings(max_examples=300)
    def test_prod_div_round_trip(self, q, x, y):
        p = q_prod(q, x, y)
        if not (1e-140 < p < 1e140):
            return
        tol = 1e-11 + _prod_div_condition(q, x, y, p)
        assert rel_close(q_div(q, p, y), x, tol)

    def test_sub_pole(self):
        with pytest.raises(SingularDivisorError):
            q_sub(2.0, 1.0, -0.5)

    def test_prod_positivity(self):
        with pytest.raises(DomainError):
            q_prod(0.5, -1.0, 2.0)

    def test_folds(self):
        assert q_add_n(0.7, []) == 0.0
        assert q_prod_n(0.7, []) == 1.0
        xs = [0.3, 1.2, 0.8]
        acc = 0.0
        for x in xs:
            acc = q_add(0.7, acc, x)
        assert q_add_n(0.7, xs) == pytest.approx(acc, rel=1e-15)

    @given(q=couplings, x=small_reals, y=small_reals)
    @settings(max_examples=300)
    def test_exp_q_turns_deformed_sum_into_product(self, q, x, y):
        # exp_q(x) * exp_q(y) == exp_q(x (+)_q y)
        if 0.0 < abs(q) < 1e-8:
            return
        ex, ey = exp_q(q, x), exp_q(q, y)
        if not (1e-60 < ex < 1e60 and 1e-60 < ey < 1e60):
            return
        lhs = ex * ey
        rhs = exp_q(q, q_add(q, x, y))
        assert rel_close(lhs, rhs, 1e-11)

    @given(q=couplings, x=small_reals, y=small_reals)
    @example(q=1e-10, x=5.0, y=5.0)
    @settings(max_examples=300)
    def test_exp_q_of_plain_sum_is_deformed_product(self, q, x, y):
        # exp_q(x + y) == exp_q(x) (x)_q exp_q(y)
        ex, ey = exp_q(q, x), exp_q(q, y)
        if not (1e-60 < ex < 1e60 and 1e-60 < ey < 1e60):
            return
        lhs = exp_q(q, x + y)
        rhs = q_prod(q, ex, ey)
        if lhs == math.inf or rhs == math.inf:
            assert lhs == rhs
            return
        assert rel_close(lhs, rhs, 1e-11)

    @pytest.mark.parametrize("q", [1e-10, -1e-10, 5e-11, -5e-11])
    def test_band_prod_div_against_mpmath(self, q):
        # 40-digit [x^q + y^q - 1]^(1/q) and [x^q - y^q + 1]^(1/q) inside
        # the classical band; the plain x*y misses the first-order factor
        # exp(-q log x log y), 2.5e-9 for the exp_q(5) pair
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            mq = mp.mpf(q)
            for u, v in ((5.0, 5.0), (7.0, 3.0), (-4.0, 11.0), (0.3, -0.8),
                         (30.0, -25.0)):
                x, y = exp_q(q, u), exp_q(q, v)
                mx, my = mp.mpf(x) ** mq, mp.mpf(y) ** mq
                want_prod = (mx + my - 1) ** (1 / mq)
                want_div = (mx - my + 1) ** (1 / mq)
                assert abs(q_prod(q, x, y) - want_prod) <= 1e-14 * want_prod
                assert abs(q_div(q, x, y) - want_div) <= 1e-14 * want_div
                assert rel_close(q_prod(q, x, y), exp_q(q, u + v), 1e-14)

    @given(q=couplings, x=small_reals, p=st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=300)
    def test_power_rescale_identity(self, q, x, p):
        # exp_q(x)^p == exp_{q/p}(p x)
        if 0.0 < abs(q) < 1e-8:
            return
        y = exp_q(q, x)
        if not (1e-30 < y < 1e30):
            return
        q2, x2 = power_rescale(q, x, p)
        assert rel_close(y ** p, exp_q(q2, x2), 1e-11)

    def test_power_rescale_zero_power(self):
        with pytest.raises(DomainError):
            power_rescale(0.5, 1.0, 0.0)


class TestComplexAndTrig:
    def test_euler_identity_classical(self):
        val = exp_q_complex(0.0, 1j * math.pi)
        assert val == pytest.approx(-1.0 + 0j, abs=1e-15)

    def test_fixed_complex_value(self):
        # q=-1: 1/(1-z) at z=i -> (1+i)/2... 1/(1-i) = (1+i)/2
        assert exp_q_complex(-1.0, 1j) == pytest.approx((1 + 1j) / 2, abs=1e-15)

    def test_branch_cut_raises(self):
        with pytest.raises(BranchCutError):
            exp_q_complex(1.0, -2.0 + 0j)

    @pytest.mark.filterwarnings("error")
    def test_out_of_range_raises_numerics_error(self):
        for q, z in ((0.0, 1000 + 0j), (0.5, 1e300 + 0j), (0.5, 1e200 + 1e200j),
                     (1e-11, 3e11 + 0j)):
            with pytest.raises(NumericsError, match="exp_q_complex"):
                exp_q_complex(q, z)
        assert exp_q_complex(0.0, -1000 + 0j) == 0.0

    def test_conjugate_symmetry(self):
        for q in (-1.5, -0.5, 0.3, 2.0):
            for z in (0.3 + 0.7j, -1.2 + 0.4j):
                a = exp_q_complex(q, z)
                b = exp_q_complex(q, z.conjugate())
                assert a.conjugate() == pytest.approx(b, rel=1e-14)

    def test_imaginary_argument_matches_complex_scalar(self):
        ys = np.array([-40.0, -2.5, -0.3, 0.0, 0.7, 3.0, 25.0])
        for q in (-1.5, -0.5, -1e-11, 0.0, 1e-11, 0.3, 2.0):
            want = [exp_q_complex(q, 1j * y) for y in ys]
            np.testing.assert_allclose(exp_q_imag(q, ys), want, rtol=1e-13)
            np.testing.assert_allclose(exp_q_imag(q, ys, 0.25), 0.25 * np.array(want),
                                       rtol=1e-13)

    def test_sin_classical(self):
        assert sin_q(0.0, math.pi / 2) == pytest.approx(1.0, rel=1e-15)
        assert sin_q(0.0, 1.3) == pytest.approx(math.sin(1.3), rel=1e-14)

    def test_sin_fixed_heavy(self):
        # q=-1: sin_q(x) = x/(1+x^2)
        assert sin_q(-1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert sin_q(-1.0, 2.0) == pytest.approx(0.4, rel=1e-14)

    def test_sinc_at_zero(self):
        assert sinc_q(0.7, 0.0) == 1.0
        assert sinc_q(-0.5, 0.0) == 1.0

    @given(q=st.floats(min_value=-1.9, max_value=3.0), x=st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=300)
    def test_sin_odd_sinc_even(self, q, x):
        assert sin_q(q, -x) == pytest.approx(-sin_q(q, x), abs=1e-12)
        assert sinc_q(q, -x) == pytest.approx(sinc_q(q, x), abs=1e-12)

    @pytest.mark.parametrize("q, tol", [
        *((q, 1e-13) for q in (-1.9, -1.5, -0.5, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0,
                               1e-11, -1e-11, 0.0)),
        (1e-3, 1e-11), (-1e-3, 1e-11),
    ])
    def test_sin_sinc_against_mpmath(self, q, tol):
        # 40-digit Im (1 + i q x)^(1/q), the defining form also inside the
        # classical band.  Errors are scaled by 1 + |exp_q(ix)|, not by
        # |sin_q|: at q = 1e-3, x = 1e3 the phase is 250 pi, so sin_q is
        # 6e-15 of the modulus, while the phase itself is only a float.
        mp = pytest.importorskip("mpmath")
        xs = np.concatenate((np.linspace(-1e3, 1e3, 201), [-0.3, 1e-3, 0.7, 2.5, 17.0]))
        got_sin, got_sinc = sin_q(q, xs), sinc_q(q, xs)
        with mp.workdps(40):
            for x, s, sc in zip(xs, got_sin, got_sinc):
                mx = mp.mpf(float(x))
                z = mp.expj(mx) if q == 0.0 else (1 + 1j * mp.mpf(q) * mx) ** (1 / mp.mpf(q))
                assert abs(s - mp.im(z)) <= tol * (1 + abs(z)), x
                if x == 0.0:
                    assert sc == 1.0
                else:
                    assert abs(sc - mp.im(z) / mx) <= tol * (1 + abs(z) / abs(mx)), x

    @pytest.mark.parametrize("q", [1e-10, -1e-10])
    @pytest.mark.parametrize("x", [1e6, 3e6])
    def test_band_sin_far_from_origin_against_mpmath(self, q, x):
        # |q x| >= 1e-4: the band's continuation exp(q x^2/2) e^{ix} drops
        # the q^2 x^3/3 term of the phase, 3e-3 of the modulus at 1e6
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            z = (1 + 1j * mp.mpf(q) * mp.mpf(x)) ** (1 / mp.mpf(q))
            assert abs(sin_q(q, x) - mp.im(z)) <= 1e-10 * abs(z)
            assert abs(sin_q(q, -x) + mp.im(z)) <= 1e-10 * abs(z)

    def test_sin_array_matches_scalar(self):
        xs = np.linspace(-5, 5, 31)
        for q in (-0.5, 0.0, 0.5):
            np.testing.assert_allclose(
                sin_q(q, xs), [sin_q(q, float(x)) for x in xs], rtol=1e-13, atol=1e-16
            )


def _fd_derivative(f, x, order, h):
    if order == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    raise ValueError(order)


class TestClosedFormCalculus:
    @pytest.mark.parametrize("q", [-1.2, -0.5, 0.3, 0.45])
    @pytest.mark.parametrize("a", [0.7, 2.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_derivative_against_finite_differences(self, q, a, n):
        f = lambda t: exp_q(q, a * t)
        for x in (-0.3, 0.0, 0.8):
            if 1.0 + q * a * x < 0.3:  # keep away from the support edge
                continue
            h = 1e-5 * (1.0 + abs(x))
            want = _fd_derivative(f, x, n, h)
            got = dn_exp_q(q, a, n, x)
            assert rel_close(got, want, 1e-5 if n == 1 else 1e-4)

    @pytest.mark.parametrize("q", [-0.4, 0.3, 1.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_antiderivative_differentiates_back(self, q, n):
        a = 1.3
        F = lambda t: intn_exp_q(q, a, n, t)
        for x in (-0.2, 0.0, 0.6):
            h = 1e-5 * (1.0 + abs(x))
            got = _fd_derivative(F, x, n, h)
            want = exp_q(q, a * x)
            assert rel_close(got, want, 1e-5 if n == 1 else 1e-4)

    def test_array_argument_matches_scalars(self):
        xs = np.array([-0.4, 0.0, 0.25, 0.9])
        for fn in (dn_exp_q, intn_exp_q):
            for q, n in ((-0.6, 1), (0.0, 2), (0.3, 2)):
                got = fn(q, 1.3, n, xs)
                assert all(_same_bits(g, fn(q, 1.3, n, float(x)))
                           for g, x in zip(got, xs))
        with pytest.raises(DomainError):
            dn_exp_q(0.3, 1.0, 1, np.array([0.1, np.nan]))

    def test_classical_limit_values(self):
        assert dn_exp_q(0.0, 2.0, 1, 0.0) == pytest.approx(2.0, rel=1e-12)
        # first antiderivative of e^{2x} is e^{2x}/2
        assert intn_exp_q(0.0, 2.0, 1, 0.7) == pytest.approx(math.exp(1.4) / 2, rel=1e-12)

    def test_fixed_antiderivative_value(self):
        # q=1, a=1, n=1: (1/2)(1+x)^2 evaluated at x=0
        assert intn_exp_q(1.0, 1.0, 1, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_poles(self):
        with pytest.raises(PoleError):
            dn_exp_q(0.5, 1.0, 2, 0.1)  # q = 1/2 pole at i=2
        with pytest.raises(PoleError):
            dn_exp_q(1.0, 1.0, 1, 0.1)
        with pytest.raises(PoleError):
            intn_exp_q(-0.5, 1.0, 2, 0.1)  # q = -1/2 pole at i=2
        with pytest.raises(PoleError):
            intn_exp_q(-1.0, 1.0, 1, 0.1)

    def test_bad_order_and_zero_slope(self):
        with pytest.raises(DomainError):
            dn_exp_q(0.5, 1.0, 0, 0.1)
        with pytest.raises(DomainError):
            intn_exp_q(0.5, 0.0, 1, 0.1)

    @pytest.mark.parametrize("q", [-1.5, -0.5, 0.0, 0.5, 1.0])
    def test_decay_ode(self, q):
        # y(t) = exp_q(-t) solves y' = -y^(1-q)
        for t in (0.0, 0.4, 0.9):
            y = exp_q(q, -t)
            if y <= 0.0:
                continue
            h = 1e-6 * (1.0 + abs(t))
            dy = (exp_q(q, -(t + h)) - exp_q(q, -(t - h))) / (2 * h)
            assert rel_close(dy, -(y ** (1.0 - q)), 1e-6)


class TestCoupling:
    def test_regimes(self):
        assert classify_coupling(-0.5) == qcore.HEAVY_TAIL
        assert classify_coupling(0.0) == qcore.ZERO
        assert classify_coupling(5e-11) == qcore.ZERO
        assert classify_coupling(1.2) == qcore.COMPACT
        assert classify_coupling(-2.0) == qcore.SUBNORMALIZABLE
        assert classify_coupling(-3.1) == qcore.SUBNORMALIZABLE

    def test_dataclass(self):
        c = Coupling(-0.5)
        assert c.regime == qcore.HEAVY_TAIL
        assert float(c) == -0.5
        with pytest.raises(DomainError):
            Coupling(math.nan)

    def test_functions_accept_coupling(self):
        assert exp_q(Coupling(1.0), 3.0) == pytest.approx(4.0)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _assert_scalar_parity(f, x):
    """f(x) is a Python float bitwise equal to f([x])[0], or both calls
    raise the same error."""
    try:
        scalar = f(x)
    except CouplingError as exc:
        with pytest.raises(type(exc)):
            f(np.array([x]))
        return
    assert type(scalar) is float
    assert _same_bits(scalar, f(np.array([x]))[0])


# every coupling regime, with extra weight on both edges of the
# classical band |q| <= COUPLING_EPS
parity_couplings = st.one_of(
    st.floats(min_value=-1.99, max_value=3.0),
    st.floats(min_value=-2e-10, max_value=2e-10),
)


@st.composite
def coupling_and_argument(draw):
    q = draw(parity_couplings)
    kind = draw(st.sampled_from(["moderate", "switch", "any"]))
    if kind == "switch" and q != 0.0:
        # |q x| near the switch between the continuation and the exact form
        scale = draw(st.floats(min_value=0.5, max_value=2.0))
        return q, draw(st.sampled_from([1.0, -1.0])) * scale * qcore._SMALL_QX / q
    if kind == "any":
        return q, draw(st.floats(allow_nan=False, allow_infinity=False))
    return q, draw(st.floats(min_value=-50.0, max_value=50.0))


class TestScalarArrayParity:
    @pytest.mark.parametrize("kernel", [exp_q, ln_q, sin_q, sinc_q])
    @given(qx=coupling_and_argument())
    @settings(max_examples=300)
    def test_scalar_is_float_equal_to_array(self, kernel, qx):
        q, x = qx
        if kernel is ln_q:
            x = abs(x)
        _assert_scalar_parity(lambda v: kernel(q, v), x)

    @given(
        q=parity_couplings,
        beta=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.one_of(st.just(2.0), st.floats(min_value=1.0, max_value=2.0)),
        near_switch=st.booleans(),
        x=st.floats(min_value=-1e3, max_value=1e3),
        rel=st.floats(min_value=-1e-9, max_value=1e-9),
    )
    @settings(max_examples=300)
    def test_neg_power_scalar_is_float_equal_to_array(
            self, q, beta, alpha, near_switch, x, rel):
        if near_switch:
            # beta |x|^alpha near the switch to log space at 1e300
            x = (qcore._LOG_SPACE_ARG / beta) ** (1.0 / alpha) * (1.0 + rel)
        _assert_scalar_parity(lambda v: exp_q_neg_power(q, beta, v, alpha), x)
