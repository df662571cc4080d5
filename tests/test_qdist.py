"""Coupled distributions: normalization constant, pdf, escort chain,
entropy, parameter maps, conjugate pairs, and the sampler.

Fixed expected values are either exact algebra or frozen from
independent oracles (classical results, scipy.stats.t, quadrature of
the defining integrals)."""

import math
import sys
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_law, kstest, norm, t as student_t

from qcoupling import _chunks, qdist
from qcoupling.errors import DomainError, NumericsError
from qcoupling.qcore import Coupling, exp_q
from qcoupling.qdist import (
    PRESERVE_BETA,
    PRESERVE_NORMALIZATION,
    PRESERVE_VARIANCE,
    DensityGrid,
    QFamily,
    QGaussian,
    c_q,
    conjugate_pair,
    coupled_density,
    coupled_discrete,
    coupling_phi,
    entropy_density,
    entropy_discrete,
    kappa_map,
    kappa_shift,
    q_alpha_normalize,
    q_moments,
    qgaussian_mass,
    qgaussian_pdf,
    sample_qgaussian,
    student_t_map,
    support_bounds,
)
from qcoupling.qseq import conj_hat, z_n

SQRT_PI = math.sqrt(math.pi)


class TestNormalizationConstant:
    def test_classical_value(self):
        assert c_q(0.0) == pytest.approx(SQRT_PI, rel=1e-15)

    def test_cauchy_value_against_quadrature(self):
        # the q=-1 member is Cauchy-shaped: integral of 1/(1+x^2) is pi
        oracle, err = quad(lambda x: 1.0 / (1.0 + x * x), -np.inf, np.inf)
        assert err < 1e-8
        assert c_q(-1.0) == pytest.approx(math.pi, abs=1e-10)
        assert c_q(-1.0) == pytest.approx(oracle, abs=1e-10)

    def test_compact_value(self):
        # q=1: integral of (1-x^2) over [-1,1] = 4/3
        assert c_q(1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_continuity_at_zero(self):
        assert abs(c_q(1e-6) - SQRT_PI) < 1e-4
        assert abs(c_q(-1e-6) - SQRT_PI) < 1e-4

    @pytest.mark.parametrize("q", [-1.9, -1.5, -1.0, -0.5, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [1.0, 0.37])
    def test_matches_quadrature_of_defining_integral(self, q, beta):
        # int exp_q(-beta x^2) dx == c_q(q)/sqrt(beta)
        dist = QGaussian(q, 0.0, 1.0 / ((2.0 + q) * beta))
        got = qgaussian_mass(dist) * c_q(q) / math.sqrt(beta)  # mass uses same integral
        # direct route, without the pdf normalization:
        val = qgaussian_mass(dist)
        assert val == pytest.approx(1.0, abs=1e-8)
        assert got == pytest.approx(c_q(q) / math.sqrt(beta), rel=1e-8)

    def test_matches_high_precision_gamma_ratio(self):
        qs = np.concatenate([np.linspace(-1.999, -0.01, 60),
                             np.linspace(0.01, 50.0, 60)])
        with mp.workdps(40):
            for q in qs:
                q = float(q)
                if q > 0.0:
                    a = 1 / mp.mpf(q) + 1
                    want = mp.sqrt(mp.pi / q) * mp.gamma(a) / mp.gamma(a + 0.5)
                else:
                    r = -1 / mp.mpf(q)
                    want = mp.sqrt(mp.pi * r) * mp.gamma(r - 0.5) / mp.gamma(r)
                assert abs(c_q(q) - want) <= 1e-12 * want

    def test_small_coupling_band_keeps_first_order(self):
        # exp_q's continuation exp(-x^2 (1 + q x^2/2)) integrates to
        # sqrt(pi) (1 - 3q/8): no jump at the band edges, unit mass inside
        for q in (1e-10, -1e-10):
            inside, outside = c_q(q), c_q(q * (1.0 + 1e-7))
            assert abs(outside - inside) <= 1e-14 * inside
        for q in (9.1e-11, -9.1e-11):
            assert qgaussian_mass(QGaussian(q)) == pytest.approx(1.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            c_q(-2.0)
        with pytest.raises(DomainError):
            c_q(-2.5)

    def test_gamma_shift_identities(self):
        # Gamma(1/z_2(q)) = (1/q) Gamma(1/q) and the z_1-shifted analogue
        from scipy.special import gamma as Gamma

        for q in (0.25, 0.5, 1.0, 2.0):
            q2 = z_n(q, 2)
            assert Gamma(1.0 / q2) == pytest.approx((1.0 / q) * Gamma(1.0 / q), rel=1e-10)
            q1 = z_n(q, 1)
            q3 = z_n(q, 3)
            assert Gamma(1.0 / q3) == pytest.approx((1.0 / q1) * Gamma(1.0 / q1), rel=1e-10)


class TestQGaussian:
    def test_classical_pdf(self):
        d = QGaussian(0.0, 0.0, 1.0)  # sigma_sq = 1/(2 beta) = 1
        assert qgaussian_pdf(d, 0.0) == pytest.approx(norm.pdf(0.0), rel=1e-12)
        xs = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(qgaussian_pdf(d, xs), norm.pdf(xs), rtol=1e-12)

    def test_cauchy_pdf_value(self):
        d = QGaussian(-1.0, 0.0, 1.0)  # beta = 1: standard Cauchy
        assert qgaussian_pdf(d, 1.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)
        assert qgaussian_pdf(d, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_support(self):
        d = QGaussian(4.0, 0.0, 1.0)
        lo, hi = support_bounds(d)
        assert hi == pytest.approx(math.sqrt(1.5), rel=1e-13)
        assert lo == -hi
        assert qgaussian_pdf(d, hi + 1e-9) == 0.0
        assert support_bounds(QGaussian(-0.5)) == (-math.inf, math.inf)

    def test_validation(self):
        with pytest.raises(DomainError):
            QGaussian(-2.0)
        with pytest.raises(DomainError):
            QGaussian(0.5, 0.0, -1.0)
        with pytest.raises(DomainError):
            QGaussian(0.5, math.nan, 1.0)

    @pytest.mark.parametrize("q", [-1.9, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 5.0])
    def test_unit_mass(self, q):
        d = QGaussian(q, 0.7, 2.3)
        assert qgaussian_mass(d) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q", [-1.9, -1.95, -1.99])
    def test_unit_mass_near_minus_two(self, q):
        # much of the mass lies past |x| = 1e154, where beta x^2 overflows,
        # and nearer -2 past the largest float
        try:
            mass = qgaussian_mass(QGaussian(q, 0.0, 1.0))
        except NumericsError:
            return
        assert abs(mass - 1.0) <= 1e-9

    @pytest.mark.parametrize("q,beta", [(-1.5, 0.6), (-0.5, 1.0)])
    def test_tail_exponent(self, q, beta):
        # log-log slope of the density approaches 2/q far in the tail
        d = QGaussian(q, 0.0, 1.0 / ((2.0 + q) * beta))
        xs = np.array([1e3, 1e4])
        ys = qgaussian_pdf(d, xs)
        slope = (math.log(ys[1]) - math.log(ys[0])) / (math.log(xs[1]) - math.log(xs[0]))
        assert slope == pytest.approx(2.0 / q, rel=0.01)


class TestQFamily:
    def test_stores_coupling_as_float(self):
        for fam in (QGaussian(Coupling(-0.5)), QFamily(Coupling(-0.5), 1.5)):
            assert type(fam.q) is float and fam.q == -0.5
        assert qgaussian_pdf(QGaussian(Coupling(-0.5)), 0.3) == qgaussian_pdf(
            QGaussian(-0.5), 0.3)

    @pytest.mark.parametrize("sigma_sq", [1e-320, 1e308])
    def test_degenerate_scale(self, sigma_sq):
        # beta = 1/((2+q) sigma_sq) overflows to inf or underflows to 0
        with pytest.raises(DomainError, match="beta"):
            QGaussian(0.5, 0.0, sigma_sq)

    def test_nan_argument_rejected(self):
        with pytest.raises(DomainError):
            qgaussian_pdf(QGaussian(-0.5), math.nan)
        with pytest.raises(DomainError):
            QFamily(0.5).value([0.0, math.nan])
        assert QFamily(-0.5).value(math.inf) == 0.0

    def test_sampler_rejects_alpha_family(self):
        with pytest.raises(DomainError, match="alpha"):
            sample_qgaussian(QFamily(-0.5, 1.0), 3, 1)

    def test_conjugate_pair_rejects_alpha_family(self):
        with pytest.raises(DomainError, match="alpha"):
            conjugate_pair(QFamily(-0.5, 1.0))

    def test_support_bounds_rejects_alpha_family(self):
        with pytest.raises(DomainError, match="alpha"):
            support_bounds(QFamily(0.5, 1.0))


class TestQAlphaFamily:
    def test_reduces_to_gaussian_shape(self):
        fam = QFamily(q=-0.5, alpha=2.0, a=1.0, beta=1.0)
        xs = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            qgaussian_pdf(fam, xs), exp_q(-0.5, -xs ** 2), rtol=1e-14
        )

    def test_normalize_unit_mass(self):
        for q, alpha in [(-0.5, 1.0), (0.0, 1.5), (0.8, 1.0), (1.5, 2.0)]:
            fam = q_alpha_normalize(QFamily(q=q, alpha=alpha, a=0.7, beta=1.3))
            assert qgaussian_mass(fam) == pytest.approx(1.0, abs=1e-8)

    def test_divergent_mass(self):
        with pytest.raises(DomainError):
            qgaussian_mass(QFamily(q=-1.0, alpha=1.0))

    def test_classical_laplace_mass(self):
        # q=0, alpha=1: integral of exp(-beta|x|) = 2/beta
        fam = QFamily(q=0.0, alpha=1.0, a=1.0, beta=0.8)
        assert qgaussian_mass(fam) == pytest.approx(2.0 / 0.8, rel=1e-10)


class TestEscort:
    def test_identity_at_zero_coupling(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(coupled_discrete(p, 0.0), p, atol=1e-15)

    def test_uniform_fixed_point(self):
        p = np.full(5, 0.2)
        for q in (-1.5, -0.3, 0.7, 1.0, 2.5):
            np.testing.assert_allclose(coupled_discrete(p, q), p, atol=1e-14)

    def test_q_one_gives_uniform(self):
        p = np.array([0.5, 0.25, 0.25])
        np.testing.assert_allclose(coupled_discrete(p, 1.0), np.full(3, 1 / 3), atol=1e-15)

    def test_zero_states(self):
        p = np.array([0.5, 0.5, 0.0])
        out = coupled_discrete(p, 0.3)
        assert out[2] == 0.0
        with pytest.raises(DomainError):
            coupled_discrete(p, 1.0)

    def test_invalid_probs(self):
        with pytest.raises(DomainError):
            coupled_discrete(np.array([0.5, 0.6]), 0.5)
        with pytest.raises(DomainError):
            coupled_discrete(np.array([0.5, -0.5, 1.0]), 0.5)

    @given(
        q=st.floats(min_value=-1.9, max_value=0.9),
        raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
    )
    @settings(max_examples=300)
    def test_product_form(self, q, raw):
        # escort(p)_i  ==  (p_i / p_i^q) * prod_j p_j^q, renormalized
        p = np.asarray(raw)
        p = p / p.sum()
        direct = coupled_discrete(p, q)
        alt = p ** (1.0 - q) * np.prod(p ** q)
        alt = alt / alt.sum()
        np.testing.assert_allclose(direct, alt, rtol=1e-11, atol=1e-14)

    def test_qgaussian_stays_in_family(self):
        # escort of the q member is the q/(1-q) member with width (1-q) beta
        q = 0.5
        d = QGaussian(q, 0.0, 1.0)
        lo, hi = support_bounds(d)
        n = 40001
        xs = np.linspace(lo, hi, n)
        grid = DensityGrid(xs[0], xs[1] - xs[0], qgaussian_pdf(d, xs))
        esc = coupled_density(grid, q)
        Q = q / (1.0 - q)
        B = (1.0 - q) * d.beta
        target = QGaussian(Q, 0.0, 1.0 / ((2.0 + Q) * B))
        want = qgaussian_pdf(target, xs)
        assert np.max(np.abs(esc.f - want)) <= 1e-6

    @pytest.mark.parametrize("fn, on_grid", [
        (coupled_discrete, False), (entropy_discrete, False),
        (coupled_density, True), (entropy_density, True), (q_moments, True),
    ], ids=["coupled_discrete", "entropy_discrete", "coupled_density",
            "entropy_density", "q_moments"])
    def test_sum_past_the_float_range_is_typed(self, fn, on_grid):
        # (1e-300)^(1-3) = 1e600; the test configuration turns a
        # RuntimeWarning into a failure
        p = np.array([1e-300, 1.0 - 1e-300])
        with pytest.raises(DomainError):
            fn(DensityGrid(0.0, 1.0, p) if on_grid else p, 3.0)

    def test_escort_variance_recovers_sigma_sq(self):
        q = 0.5
        sigma_sq = 1.7
        d = QGaussian(q, 0.0, sigma_sq)
        lo, hi = support_bounds(d)
        xs = np.linspace(lo, hi, 40001)
        grid = DensityGrid(xs[0], xs[1] - xs[0], qgaussian_pdf(d, xs))
        mean, var = q_moments(grid, q)
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert var == pytest.approx(sigma_sq, abs=1e-6)


class TestEntropy:
    def test_discrete_uniform_closed_form(self):
        for n in (2, 5, 17):
            p = np.full(n, 1.0 / n)
            for q in (-1.5, -0.5, 0.5, 1.0, 2.0):
                assert entropy_discrete(p, q) == pytest.approx((n ** q - 1.0) / q, rel=1e-12)

    def test_shannon_limit(self):
        p = np.array([0.5, 0.25, 0.25])
        want = -(p * np.log(p)).sum()
        assert entropy_discrete(p, 0.0) == pytest.approx(want, rel=1e-14)
        # zero states contribute zero
        p2 = np.array([0.5, 0.25, 0.25, 0.0])
        assert entropy_discrete(p2, 0.0) == pytest.approx(want, rel=1e-14)

    @given(
        q=st.floats(min_value=-1.9, max_value=2.5),
        ra=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4),
        rb=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4),
    )
    @settings(max_examples=300)
    def test_pseudo_additivity(self, q, ra, rb):
        # S(A x B) = S(A) + S(B) + q S(A) S(B)
        # rounding the fp outer product perturbs the identity by ~eps/q,
        # so couplings too close to (but not at) zero cannot be checked
        if abs(q) < 1e-4:
            q = 0.0
        pa = np.asarray(ra)
        pa /= pa.sum()
        pb = np.asarray(rb)
        pb /= pb.sum()
        joint = np.outer(pa, pb).ravel()
        sa, sb = entropy_discrete(pa, q), entropy_discrete(pb, q)
        sab = entropy_discrete(joint, q)
        if q == 0.0:
            want = sa + sb
        else:
            want = sa + sb + q * sa * sb
        # abs floor: the closed form can cancel to ~0 while each term is O(1)
        assert sab == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_density_uniform(self):
        # uniform on [0, 2]: S_q = (2^q - 1)/q via f = 1/2
        xs = np.linspace(0.0, 2.0, 2001)
        grid = DensityGrid(0.0, xs[1] - xs[0], np.full_like(xs, 0.5))
        assert entropy_density(grid, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert entropy_density(grid, 0.5) == pytest.approx((2 ** 0.5 - 1) / 0.5, rel=1e-12)

    def test_tiny_state_past_expm1_range(self):
        # exp(-q ln p) overflows at p = 1e-300, q = 1.1, but p^(1-q) = 1e30
        p = np.array([1e-300, 1.0 - 1e-300])
        assert entropy_discrete(p, 1.1) == pytest.approx(1e30 / 1.1, rel=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.4, -0.6, 2.0])
    def test_density_zeros_contribute_in_place(self, q):
        # guard: trapezoid weights depend on position, so zero values
        # must stay in place, at both ends and inside
        f = np.array([0.0, 0.0, 0.3, 0.5, 0.0, 0.7, 0.2, 0.9, 0.0])
        dx = 0.37
        pos = f > 0.0
        w = np.zeros_like(f)
        if q == 0.0:
            w[pos] = -f[pos] * np.log(f[pos])
            want = np.trapezoid(w, dx=dx)
        else:
            w[pos] = f[pos] ** (1.0 - q)
            want = (np.trapezoid(w, dx=dx) - 1.0) / q
        got = entropy_density(DensityGrid(-1.0, dx, f), q)
        assert got == pytest.approx(want, rel=1e-14)

    def test_density_normal_shannon(self):
        xs = np.linspace(-10, 10, 20001)
        grid = DensityGrid(xs[0], xs[1] - xs[0], norm.pdf(xs))
        want = 0.5 * math.log(2 * math.pi * math.e)
        assert entropy_density(grid, 0.0) == pytest.approx(want, abs=1e-8)


class TestParameterMaps:
    def test_student_t_cauchy(self):
        mapped = student_t_map(1.0)
        assert mapped.dist.q == pytest.approx(-1.0, rel=1e-15)
        assert mapped.dist.beta == pytest.approx(1.0, rel=1e-14)
        assert mapped.q_hat == pytest.approx(2.0, rel=1e-15)
        xs = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(
            qgaussian_pdf(mapped.dist, xs), student_t.pdf(xs, 1), rtol=1e-12
        )

    @pytest.mark.parametrize("nu", [2.0, 3.0, 7.5])
    def test_student_t_pdf_matches_scipy(self, nu):
        mapped = student_t_map(nu)
        xs = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(
            qgaussian_pdf(mapped.dist, xs), student_t.pdf(xs, nu), rtol=1e-11
        )

    def test_student_t_hat_consistency(self):
        for nu in (1.0, 2.0, 5.0):
            mapped = student_t_map(nu)
            assert conj_hat(mapped.dist.q) == pytest.approx(mapped.q_hat, rel=1e-13)

    def test_student_t_domain(self):
        with pytest.raises(DomainError):
            student_t_map(0.0)

    def test_kappa(self):
        assert kappa_map(2.0) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            kappa_map(0.0)
        # reciprocal sequence: 1/z_n(1/kappa) = kappa + n/2
        for kappa in (0.5, 1.0, 3.0):
            for n in (-1, 1, 2, 4):
                if abs(kappa + n / 2.0) < 1e-12:
                    continue  # the shifted member sits at the pole
                zn = z_n(kappa_map(kappa), n)
                assert 1.0 / zn == pytest.approx(kappa_shift(kappa, n), rel=1e-12)

    def test_coupling_phi_values(self):
        assert coupling_phi(1.0, 1.0) == pytest.approx(1.0)
        assert coupling_phi(-0.5, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert coupling_phi(-0.5, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert coupling_phi(0.0, 1.7) == 0.0

    @pytest.mark.parametrize("fn, args, name", [
        (coupling_phi, (0.5, math.nan), "alpha"),
        (student_t_map, (math.inf,), "nu"),
        (kappa_map, (math.nan,), "kappa"),
        (kappa_shift, (-math.inf, 1), "kappa"),
    ])
    def test_nonfinite_parameter_is_named(self, fn, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            fn(*args)

    def test_coupling_phi_continuity_and_domain(self):
        assert coupling_phi(-1e-12, 2.0) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DomainError):
            coupling_phi(-1.0, 1.0)
        with pytest.raises(DomainError):
            coupling_phi(-2.5, 2.0)


class TestConjugatePair:
    def test_fixed_point(self):
        d = QGaussian(0.0, 0.3, 1.2)
        assert conjugate_pair(d, PRESERVE_VARIANCE) == d

    @pytest.mark.parametrize(
        "mode", [PRESERVE_VARIANCE, PRESERVE_BETA, PRESERVE_NORMALIZATION]
    )
    @pytest.mark.parametrize("q", [-1.5, -0.5, 0.5, 2.0, 5.0])
    def test_involution(self, mode, q):
        d = QGaussian(q, 0.4, 1.3)
        back = conjugate_pair(conjugate_pair(d, mode), mode)
        assert back.q == pytest.approx(q, rel=1e-13)
        assert back.sigma_sq == pytest.approx(d.sigma_sq, rel=1e-13)
        assert back.mu == d.mu

    def test_preserve_beta(self):
        d = QGaussian(0.5, 0.0, 1.0)
        partner = conjugate_pair(d, PRESERVE_BETA)
        assert partner.beta == pytest.approx(d.beta, rel=1e-13)
        assert partner.q == pytest.approx(conj_hat(0.5), rel=1e-14)

    def test_preserve_normalization_matches_peak(self):
        for q in (-1.2, 0.5, 2.0):
            d = QGaussian(q, 0.0, 0.9)
            partner = conjugate_pair(d, PRESERVE_NORMALIZATION)
            assert partner.a == pytest.approx(d.a, rel=1e-12)

    def test_normalization_ratio_against_quadrature(self):
        # c(conj_hat(q))/c(q) at q=2 equals ((2+q)/2)^{3/2} = 2 sqrt(2),
        # cross-checked by integrating both standard members directly
        q = 2.0
        qh = conj_hat(q)
        num, _ = quad(lambda x: exp_q(qh, -x * x), -np.inf, np.inf)
        den, _ = quad(lambda x: exp_q(q, -x * x) if 1 - q * x * x > 0 else 0.0,
                      -1 / math.sqrt(q), 1 / math.sqrt(q))
        assert num / den == pytest.approx(2.0 ** 1.5, rel=1e-9)
        assert c_q(qh) / c_q(q) == pytest.approx(2.0 ** 1.5, rel=1e-13)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            conjugate_pair(QGaussian(0.5), "nope")


class TestSampler:
    def test_deterministic(self):
        d = QGaussian(-0.5, 0.0, 1.0)
        a = sample_qgaussian(d, 1000, seed=42)
        b = sample_qgaussian(d, 1000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_qgaussian(d, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_gaussian_moments(self):
        d = QGaussian(0.0, 1.5, 2.0)
        xs = sample_qgaussian(d, 200_000, seed=1)
        assert xs.mean() == pytest.approx(1.5, abs=0.02)
        assert xs.var() == pytest.approx(2.0, abs=0.05)

    def test_cauchy_iqr(self):
        # q=-1, sigma_sq=1 has beta=1 and quartiles at +/-1: IQR = 2
        d = QGaussian(-1.0, 0.0, 1.0)
        xs = sample_qgaussian(d, 100_000, seed=2)
        iqr = np.percentile(xs, 75) - np.percentile(xs, 25)
        assert iqr == pytest.approx(2.0, rel=0.03)

    def test_heavy_gamma_path_quantiles(self):
        # nu = 2/0.35 - 1 is not an integer
        q = -0.35
        d = QGaussian(q, 0.0, 1.0)
        nu = -2.0 / q - 1.0
        xs = sample_qgaussian(d, 200_000, seed=3)
        want = 2.0 * student_t.ppf(0.75, nu)
        iqr = np.percentile(xs, 75) - np.percentile(xs, 25)
        assert iqr == pytest.approx(want, rel=0.02)

    def test_integer_nu_path_quantiles(self):
        q = -0.5  # nu = 3
        d = QGaussian(q, 0.0, 1.0)
        xs = sample_qgaussian(d, 200_000, seed=4)
        want = 2.0 * student_t.ppf(0.75, 3)
        iqr = np.percentile(xs, 75) - np.percentile(xs, 25)
        assert iqr == pytest.approx(want, rel=0.02)

    def test_compact_support_and_shape(self):
        d = QGaussian(1.0, 0.0, 1.0)
        lo, hi = support_bounds(d)
        xs = sample_qgaussian(d, 200_000, seed=5)
        assert xs.min() >= lo and xs.max() <= hi
        # histogram against the pdf
        hist, edges = np.histogram(xs, bins=40, range=(lo, hi), density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        assert np.max(np.abs(hist - qgaussian_pdf(d, centers))) < 0.02

    def test_sample_validation(self):
        with pytest.raises(DomainError):
            sample_qgaussian(QGaussian(0.5), 0, seed=1)

    @pytest.mark.parametrize("n", [True, False, 2.0])
    def test_sample_rejects_non_integer_count(self, n):
        with pytest.raises(DomainError, match="sample count"):
            sample_qgaussian(QGaussian(0.5), n, seed=1)

    @pytest.mark.parametrize("seed", [-1, True, 2.0, "3"])
    def test_sample_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed"):
            sample_qgaussian(QGaussian(-0.5), 3, seed=seed)

    def test_sample_accepts_numpy_integer_seed(self):
        assert np.array_equal(sample_qgaussian(QGaussian(-0.5), 3, seed=np.int64(4)),
                              sample_qgaussian(QGaussian(-0.5), 3, seed=4))

    @pytest.mark.filterwarnings("error")
    def test_draws_beyond_float_range_raise(self):
        # near q = -2 the radius law has k = 2q/(2 + q) = -3998, so R =
        # sqrt(-2/k) V^(k/2) passes the float range wherever V < 0.7; the
        # error counts those V = 1 - U1, with U1 the chunk's uniforms that
        # follow its n values of U2
        k = -conj_hat(-1.999)
        edge = 2.0 / k * (math.log(sys.float_info.max) - 0.5 * math.log(-2.0 / k))
        child = np.random.SeedSequence(1).spawn(1)[0]
        for n in (4, 5):
            u1 = np.random.Generator(np.random.SFC64(child)).random(2 * n)[n:]
            bad = int(np.count_nonzero(np.log1p(-u1) < edge))
            assert 0 < bad <= n
            with pytest.raises(NumericsError,
                               match=fr"^{bad} of {n} draws at coupling -1\.999"):
                sample_qgaussian(QGaussian(-1.999), n, seed=1)

    @pytest.mark.parametrize("q", [1e-5, 1e-3])
    def test_small_compact_coupling(self, q):
        # nearly classical compact laws, still inside the support
        d = QGaussian(q, 0.3, 1.7)
        lo, hi = support_bounds(d)
        xs = sample_qgaussian(d, 200_000, seed=6)
        assert xs.min() >= lo and xs.max() <= hi
        assert xs.var() == pytest.approx(1.7, rel=0.01)

    @pytest.mark.parametrize("q", [0.5, -0.5])
    def test_traced_peak_memory(self, q):
        # about one float per draw and a few temporaries: 8 MiB per 10^6
        sample_qgaussian(QGaussian(q), 10, seed=1)
        tracemalloc.start()
        try:
            sample_qgaussian(QGaussian(q), 10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20


def _scipy_law(q, mu, sigma_sq):
    """The q-Gaussian as a frozen scipy law: Student-t with nu = -2/q - 1
    for q < 0, the normal law at q = 0, and for q > 0 Beta(1/q + 1,
    1/q + 1) on the support."""
    scale = math.sqrt(sigma_sq)
    if q == 0.0:
        return norm(mu, scale)
    if q < 0.0:
        return student_t(-2.0 / q - 1.0, mu, scale)
    half = scale * math.sqrt((2.0 + q) / q)
    return beta_law(1.0 / q + 1.0, 1.0 / q + 1.0, mu - half, 2.0 * half)


def _reference_sample(dist, n, seed):
    """The sampler spelled out chunk by chunk: chunk j of CHUNK draws takes
    U2 and then U1 from the j-th child of SeedSequence(seed), and x = mu +
    sqrt(sigma_sq) R cos(2 pi U2) in the sampler's grouping."""
    size = TestBoxMullerSampler.CHUNK
    k = -conj_hat(dist.q) if dist.q else 0.0
    children = np.random.SeedSequence(seed).spawn(-(-n // size))
    chunks = []
    for j, child in enumerate(children):
        m = min(size, n - j * size)
        rng = np.random.Generator(np.random.SFC64(child))
        cos = rng.random(m)
        qdist._cos_two_pi(cos, np.empty(m))
        r = rng.random(m)
        with np.errstate(over="ignore"):
            qdist._box_muller_radius(r, k)
        chunks.append(r * cos * math.sqrt(dist.sigma_sq) + dist.mu)
    return np.concatenate(chunks)


class TestBoxMullerSampler:
    CHUNK = 1 << 16

    @pytest.mark.parametrize("q", [-1.9, -1.5, -1.0, -0.5, -1e-7, 0.0, 1e-7,
                                   1e-5, 0.5, 2.0, 8.0, 30.0])
    def test_law_matches_scipy(self, q):
        d = QGaussian(q, 0.3, 1.7)
        xs = sample_qgaussian(d, 200_000, seed=7)
        assert kstest(xs, _scipy_law(q, 0.3, 1.7).cdf).pvalue > 1e-3
        lo, hi = support_bounds(d)
        assert lo < xs.min() and xs.max() < hi

    @pytest.mark.parametrize("q", [0.5, 2.0, 30.0])
    def test_compact_draws_inside_support_near_its_edge(self, q):
        # R stays below sqrt(2/k) (1 - 1e-7) however small V = 1 - U1
        d = QGaussian(q, -2.0, 3.0)
        lo, hi = support_bounds(d)
        xs = sample_qgaussian(d, 10**6, seed=8)
        assert lo < xs.min() and xs.max() < hi

    def test_independent_of_thread_count(self, monkeypatch):
        # workers fill disjoint slices; with more workers than cores and
        # a short switch interval a lost or crossed write shows as a
        # difference
        n = 8 * self.CHUNK + 5
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 8):
                monkeypatch.setattr(_chunks, "cores", lambda cores=cores: cores)
                runs.append(sample_qgaussian(QGaussian(-0.7), n, seed=3))
        finally:
            sys.setswitchinterval(interval)
        for run in runs[1:]:
            assert np.array_equal(run, runs[0])

    @pytest.mark.parametrize("q", [-0.7, 0.0, 1.5])
    def test_matches_per_chunk_streams(self, q):
        # three chunks, the last of 5 draws: a stream keyed to the wrong
        # chunk, or a chunk written to the wrong place, shows
        d = QGaussian(q, 0.3, 1.7)
        n = 2 * self.CHUNK + 5
        assert np.array_equal(sample_qgaussian(d, n, seed=4),
                              _reference_sample(d, n, 4))

    @pytest.mark.parametrize("failure", ["draw", "range"])
    def test_failed_run_leaves_no_worker_thread(self, monkeypatch, failure):
        # eight chunks on four threads: a draw that fails on whichever
        # thread draws it, or draws past the float range near q = -2
        real_generator = np.random.Generator

        class Failing:
            # the last chunk, the only short one, fails its first draw
            def __init__(self, bit_generator):
                self.rng = real_generator(bit_generator)

            def random(self, out):
                if out.size < TestBoxMullerSampler.CHUNK:
                    raise RuntimeError("draw failed")
                return self.rng.random(out=out)

        monkeypatch.setattr(_chunks, "cores", lambda: 4)
        if failure == "draw":
            monkeypatch.setattr(np.random, "Generator", Failing)
        error = RuntimeError if failure == "draw" else NumericsError
        before = threading.active_count()
        with pytest.raises(error):
            sample_qgaussian(QGaussian(-1.999), 8 * self.CHUNK - 3, seed=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 10])
    def test_whole_chunks_do_not_depend_on_count(self, n):
        d = QGaussian(1.5)
        ref = sample_qgaussian(d, 2 * self.CHUNK, seed=12)
        xs = sample_qgaussian(d, n, seed=12)
        whole = n // self.CHUNK * self.CHUNK
        assert xs.shape == (n,)
        assert np.array_equal(xs[:whole], ref[:whole])
        assert np.array_equal(xs, sample_qgaussian(d, n, seed=12))

    @pytest.mark.filterwarnings("error")
    def test_far_tail_stays_finite(self):
        # at q = -1.9, k ln V reaches 1400; R^2 would overflow where
        # R > 1.3e154, but R itself stays inside the float range
        d = QGaussian(-1.9)
        for seed in range(10):
            xs = sample_qgaussian(d, 10**6, seed=seed)
            assert np.isfinite(xs).all()
        with pytest.raises(NumericsError, match="exceed the float range"):
            sample_qgaussian(QGaussian(-1.999), 10**4, seed=0)

    def test_cosine_from_the_tangent(self):
        # U on the sampler's grid of 2^-53, against 40-digit mpmath
        u = np.concatenate([[0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53],
                            np.random.default_rng(6).random(2000)])
        c = u.copy()
        qdist._cos_two_pi(c, np.empty_like(u))
        with mp.workdps(40):
            want = np.array([float(mp.cos(2 * mp.pi * mp.mpf(v))) for v in u])
        assert np.max(np.abs(c - want)) <= 2 * 2.0**-52

    @pytest.mark.parametrize("q", [0.5, 2.0, 30.0, 1e6])
    def test_compact_radius_stays_below_the_edge(self, q):
        # the smallest V, 2^-53, takes V^k to 0 in floating point
        k = -conj_hat(q)
        r = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        qdist._box_muller_radius(r, k)
        assert r[0] == 0.0
        assert r.max() < math.sqrt(2.0 / k)

    def test_heavy_radius_takes_the_exponential_tail(self):
        # k ln V = 1396 at the smallest V; R^2 would overflow there
        k = -conj_hat(-1.9)
        r = np.array([1.0 - 2.0**-53])
        with np.errstate(over="ignore"):  # as the sampler calls it
            qdist._box_muller_radius(r, k)
        want = mp.sqrt(-2 * mp.expm1(k * mp.log(mp.mpf(2) ** -53)) / k)
        assert float(r[0]) == pytest.approx(float(want), rel=1e-12)
