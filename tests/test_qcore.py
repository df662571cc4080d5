"""Deformed exponential algebra: fixed values, inverse laws, identities,
and finite-difference oracles for the closed-form calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoupling import qcore
from qcoupling.errors import (
    BranchCutError,
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


class TestDeformedArithmetic:
    @given(q=couplings, x=small_reals, y=small_reals)
    @settings(max_examples=300)
    def test_add_sub_round_trip(self, q, x, y):
        if abs(1.0 + q * y) < 1e-3:
            return
        s = q_add(q, x, y)
        assert rel_close(q_sub(q, s, y), x, 1e-12)

    @given(q=couplings, x=st.floats(min_value=0.1, max_value=10.0), y=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=300)
    def test_prod_div_round_trip(self, q, x, y):
        p = q_prod(q, x, y)
        if not (1e-140 < p < 1e140):
            return
        assert rel_close(q_div(q, p, y), x, 1e-11)

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
    @settings(max_examples=300)
    def test_exp_q_of_plain_sum_is_deformed_product(self, q, x, y):
        # exp_q(x + y) == exp_q(x) (x)_q exp_q(y)
        if 0.0 < abs(q) < 1e-8:
            return
        ex, ey = exp_q(q, x), exp_q(q, y)
        if not (1e-60 < ex < 1e60 and 1e-60 < ey < 1e60):
            return
        lhs = exp_q(q, x + y)
        rhs = q_prod(q, ex, ey)
        if lhs == math.inf or rhs == math.inf:
            assert lhs == rhs
            return
        assert rel_close(lhs, rhs, 1e-11)

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
