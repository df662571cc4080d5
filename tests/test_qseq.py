"""Coupling sequences, conjugations, duals, and the parameter translation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoupling.errors import DomainError, PoleError
from qcoupling.qdist import kappa_shift
from qcoupling.qseq import (
    conj_hat,
    conj_indexed,
    conj_tilde,
    dual_additive,
    dual_multiplicative,
    translate,
    z_alpha_n,
    z_n,
)


def scaled_close(a, b, tol):
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


# Couplings kept 0.05 away from the conjugation poles at -2 and -1.
hat_domain = st.floats(min_value=-1.95, max_value=10.0)
tilde_domain = st.one_of(
    st.floats(min_value=-0.95, max_value=10.0),
    st.floats(min_value=-1.95, max_value=-1.05),
)


class TestSequence:
    def test_fixed_values(self):
        assert z_n(1.0, 1) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert z_n(-0.5, 2) == pytest.approx(-1.0, rel=1e-15)
        assert z_n(0.8, 0) == pytest.approx(0.8, rel=1e-15)

    def test_products_past_the_float_range(self):
        # 2q or n*q overflows; 1/z_n = 1/q + n/2 stays finite
        assert z_n(1e308, 5) == pytest.approx(0.4, rel=1e-15)
        assert z_n(1e308, 0) == pytest.approx(1e308, rel=1e-15)
        assert z_n(1e308, -1) == pytest.approx(-2.0, rel=1e-15)
        assert z_n(1e300, 10**300) == pytest.approx(2e-300, rel=1e-15)
        assert z_alpha_n(1e308, 0.5, 5) == pytest.approx(0.1, rel=1e-15)
        assert conj_hat(1e308) == pytest.approx(-2.0, rel=1e-15)

    @pytest.mark.parametrize("fn, args", [
        (z_n, (0.5, 1.5)),
        (z_n, (0.5, True)),
        (z_n, (0.5, math.nan)),
        (z_alpha_n, (0.5, 1.0, 1.5)),
        (conj_indexed, (0.5, 1.5, 1)),
        (kappa_shift, (1.0, 2.7)),
    ], ids=["z_n", "z_n_bool", "z_n_nan", "z_alpha_n", "conj_indexed",
            "kappa_shift"])
    def test_index_must_be_an_integer(self, fn, args):
        # an index is an integer, never truncated
        with pytest.raises(DomainError, match="must be an integer"):
            fn(*args)

    def test_numpy_integer_index(self):
        assert z_n(0.5, np.int64(2)) == z_n(0.5, 2)
        assert conj_indexed(0.5, np.int32(3), -1) == conj_indexed(0.5, 3, -1)

    def test_pole(self):
        with pytest.raises(PoleError):
            z_n(-2.0, 1)
        with pytest.raises(PoleError):
            z_n(-1.0, 2)

    @given(q=st.floats(min_value=-1.9, max_value=5.0), n=st.integers(min_value=-20, max_value=20))
    @settings(max_examples=500)
    def test_reciprocal_progression(self, q, n):
        # 1/z_n = 1/q + n/2
        if abs(q) < 1e-3 or abs(2.0 + n * q) < 1e-2:
            return
        zn = z_n(q, n)
        if abs(zn) < 1e-12:
            return
        assert scaled_close(1.0 / zn, 1.0 / q + n / 2.0, 1e-12)

    @given(q=st.floats(min_value=-1.9, max_value=5.0), n=st.integers(min_value=-10, max_value=10))
    @settings(max_examples=500)
    def test_harmonic_mean_of_opposite_indices(self, q, n):
        # 2/q = 1/z_n + 1/z_{-n}
        if abs(q) < 1e-3 or abs(2.0 + n * q) < 1e-2 or abs(2.0 - n * q) < 1e-2:
            return
        zp, zm = z_n(q, n), z_n(q, -n)
        if min(abs(zp), abs(zm)) < 1e-12:
            return
        assert scaled_close(1.0 / zp + 1.0 / zm, 2.0 / q, 1e-12)

    @given(q=st.floats(min_value=-1.9, max_value=5.0), n=st.integers(min_value=-10, max_value=10))
    @settings(max_examples=500)
    def test_multiplication_difference_identity(self, q, n):
        # z_{n-1} * z_{n+1} ... adjacent members: z_{n-1} - z_{n+1} == z_{n-1} * z_{n+1}
        if abs(q) < 1e-3:
            return
        if abs(2.0 + (n - 1) * q) < 1e-2 or abs(2.0 + (n + 1) * q) < 1e-2:
            return
        a, b = z_n(q, n - 1), z_n(q, n + 1)
        assert scaled_close(a - b, a * b, 1e-12)

    def test_alpha_family_reduces_to_diagonal(self):
        for q in (-1.2, 0.4, 2.0):
            for n in (-3, 0, 1, 5):
                if abs(2.0 + n * q) < 1e-6:
                    continue
                assert z_alpha_n(q, 2.0, n) == pytest.approx(z_n(q, n), rel=1e-15)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            z_alpha_n(0.5, 0.0, 1)
        with pytest.raises(DomainError):
            z_alpha_n(0.5, 2.5, 1)
        with pytest.raises(DomainError, match="alpha must be finite, got nan"):
            z_alpha_n(0.5, math.nan, 1)

    @given(
        q=st.floats(min_value=-0.9, max_value=3.0),
        alpha=st.floats(min_value=0.3, max_value=2.0),
        n=st.integers(min_value=-5, max_value=5),
        m=st.integers(min_value=-5, max_value=5),
    )
    @settings(max_examples=500)
    def test_alpha_semigroup(self, q, alpha, n, m):
        # stepping n then m equals stepping n + m
        d1 = alpha + n * q
        if abs(d1) < 5e-2:
            return
        qn = z_alpha_n(q, alpha, n)
        if abs(alpha + m * qn) < 5e-2 or abs(alpha + (n + m) * q) < 5e-2:
            return
        lhs = z_alpha_n(qn, alpha, m)
        rhs = z_alpha_n(q, alpha, n + m)
        assert scaled_close(lhs, rhs, 1e-11)


class TestConjugations:
    def test_fixed_values(self):
        assert conj_hat(1.0) == pytest.approx(-2.0 / 3.0, rel=1e-15)
        assert conj_hat(-2.0 / 3.0) == pytest.approx(1.0, rel=1e-14)
        assert conj_tilde(1.0) == pytest.approx(-0.5, rel=1e-15)

    def test_poles(self):
        with pytest.raises(PoleError):
            conj_hat(-2.0)
        with pytest.raises(PoleError):
            conj_tilde(-1.0)

    @given(q=hat_domain)
    @settings(max_examples=1000)
    def test_hat_involution(self, q):
        if abs(2.0 + q) < 0.05:
            return
        qh = conj_hat(q)
        if abs(2.0 + qh) < 1e-12:
            return
        assert abs(conj_hat(qh) - q) <= 1e-14 * (1.0 + abs(q))

    @given(q=tilde_domain)
    @settings(max_examples=1000)
    def test_tilde_involution(self, q):
        if abs(1.0 + q) < 0.05:
            return
        qt = conj_tilde(q)
        if abs(1.0 + qt) < 1e-12:
            return
        assert abs(conj_tilde(qt) - q) <= 1e-14 * (1.0 + abs(q))

    def test_hat_is_minus_z1(self):
        for q in (-1.5, -0.3, 0.8, 4.0):
            assert conj_hat(q) == pytest.approx(-z_n(q, 1), rel=1e-15)

    def test_tilde_is_alpha_one_reflection(self):
        for q in (-0.5, 0.8, 4.0):
            assert conj_tilde(q) == pytest.approx(-z_alpha_n(q, 1.0, 1), rel=1e-15)

    def test_hat_relates_shifted_members(self):
        # conj_hat(z_k(q)) = -z_{k+1}(q) and z_k(conj_hat(q)) = -z_{1-k}(q);
        # the identities map poles to poles, so skip those members
        for q in (-0.8, 0.5, 2.0):
            qh = conj_hat(q)
            for k in (-2, 0, 1, 3):
                dens = (2.0 + k * q, 2.0 + (k + 1) * q, 2.0 + (1 - k) * q, 2.0 + k * qh)
                if min(abs(d) for d in dens) < 1e-9 or abs(2.0 + z_n(q, k)) < 1e-9:
                    continue
                assert conj_hat(z_n(q, k)) == pytest.approx(-z_n(q, k + 1), rel=1e-13)
                assert z_n(qh, k) == pytest.approx(-z_n(q, 1 - k), rel=1e-13)


class TestConjIndexed:
    def test_shifts_index_and_sign(self):
        q = 0.8
        out = conj_indexed(q, 0, +1)
        assert out.sign == -1 and out.index == 1
        assert out.value == pytest.approx(z_n(q, 1), rel=1e-14)
        assert out.signed_value == pytest.approx(conj_hat(q), rel=1e-14)

        out2 = conj_indexed(q, 1, +1)
        assert (out2.sign, out2.index) == (-1, 2)
        assert out2.signed_value == pytest.approx(-z_n(q, 2), rel=1e-14)

    def test_round_trip(self):
        q = -0.6
        for k in (-1, 0, 2):
            for sign in (+1, -1):
                out = conj_indexed(q, k, sign)
                back = conj_indexed(q, out.index, out.sign)
                assert (back.sign, back.index) == (sign, k)
                assert back.value == pytest.approx(z_n(q, k), rel=1e-12)

    def test_sign_validation(self):
        with pytest.raises(DomainError):
            conj_indexed(0.5, 0, 2)


class TestDualsAndTranslate:
    def test_additive(self):
        assert dual_additive(0.7) == -0.7

    def test_multiplicative(self):
        assert dual_multiplicative(0.5) == pytest.approx(-1.0, rel=1e-15)
        with pytest.raises(PoleError):
            dual_multiplicative(1.0)

    @given(q=st.floats(min_value=-10, max_value=0.95))
    @settings(max_examples=300)
    def test_multiplicative_involution(self, q):
        if abs(1.0 - q) < 0.05:
            return
        qm = dual_multiplicative(q)
        if abs(1.0 - qm) < 1e-12:
            return
        assert scaled_close(dual_multiplicative(qm), q, 1e-14)

    @given(x=st.floats(min_value=-100, max_value=100))
    @settings(max_examples=200)
    def test_translate_self_inverse(self, x):
        # exact up to the rounding of 1 - x itself
        assert translate(translate(x)) == pytest.approx(x, rel=1e-15, abs=1e-15)

    def test_translate_fixed(self):
        assert translate(0.0) == 1.0
        assert translate(1.0) == 0.0


class TestConventionConsistency:
    """The sequence in the one-minus parameterization, rebuilt through
    translate, must agree with the independent closed form."""

    @staticmethod
    def _zprime(qp, n, alpha=2.0):
        # hidden oracle: original-parameter sequence member
        return (alpha * qp + n * (1.0 - qp)) / (alpha + n * (1.0 - qp))

    def test_known_original_parameter_member(self):
        # alpha=2, n=1 must give the familiar (1+q')/(3-q')
        for qp in (-0.5, 0.2, 1.4):
            assert self._zprime(qp, 1) == pytest.approx((1 + qp) / (3 - qp), rel=1e-14)

    @pytest.mark.parametrize("qp", [-2.5, -0.7, 0.0, 0.4, 1.3, 2.6])
    @pytest.mark.parametrize("n", [-4, -1, 1, 2, 5])
    def test_sequence_translates_consistently(self, qp, n):
        # 1 - z'_n(q') == z_n(1 - q')
        q = translate(qp)
        if abs(2.0 + n * q) < 1e-9:
            return
        lhs = 1.0 - self._zprime(qp, n)
        rhs = z_n(q, n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("qp", [-1.5, -0.2, 0.5, 1.7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2.0])
    @pytest.mark.parametrize("n", [-2, 1, 3])
    def test_alpha_family_translates_consistently(self, qp, alpha, n):
        q = translate(qp)
        if abs(alpha + n * q) < 1e-9:
            return
        lhs = 1.0 - self._zprime(qp, n, alpha)
        rhs = z_alpha_n(q, alpha, n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
