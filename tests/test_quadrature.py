"""The numpy Gauss-Kronrod quadrature and its tail and line wrappers."""

import math

import numpy as np
import pytest

from qcoupling import _quadrature as quadrature
from qcoupling._quadrature import line_quad, tail_quad
from qcoupling.errors import NumericsError


@pytest.mark.parametrize("degree", range(32))
def test_rules_are_exact_on_polynomials(degree):
    # Kronrod to degree 31, its embedded 10-point Gauss rule to degree 19
    exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
    powers = quadrature._NODES ** degree
    assert abs(quadrature._W_KRONROD @ powers - exact) <= 1e-14
    if degree < 20:
        assert abs(quadrature._W_GAUSS @ powers - exact) <= 1e-14


def test_one_call_per_round_on_whole_intervals():
    calls = []

    def fn(x):
        calls.append(x.shape)
        return np.stack([np.cos(x), np.exp(-x), x ** 4], axis=1)

    val, err = quadrature._adaptive(fn, 0.0, 3.0, points=[1.0, 2.0])
    assert all(len(shape) == 1 and shape[0] % 21 == 0 for shape in calls)
    assert calls[0] == (3 * 21,)
    assert val.shape == err.shape == (3,)
    want = np.array([math.sin(3.0), -math.expm1(-3.0), 3.0 ** 5 / 5.0])
    assert np.all(np.abs(val - want) <= err)


def test_errors_are_per_entry():
    # a smooth entry next to one with a square-root endpoint
    fn = lambda x: np.stack([np.exp(-x), np.sqrt(x)], axis=1)
    val, err = quadrature._adaptive(fn, 0.0, 1.0)
    want = np.array([-math.expm1(-1.0), 2.0 / 3.0])
    assert np.all(np.abs(val - want) <= err)
    assert err[0] < err[1]


def test_scalar_integrand_gives_scalars():
    val, err = line_quad(lambda x: np.exp(-x * x), 10.0)
    assert np.ndim(val) == 0 and np.ndim(err) == 0
    assert abs(val - math.sqrt(math.pi)) <= err <= 1e-9


def test_power_tail_with_remainder():
    # integral of x^-1.5 over [1, inf) is 2
    val, err = tail_quad(lambda x: x ** -1.5, 1.0, -1.5)
    assert abs(val - 2.0) <= err <= 1e-9


def test_non_finite_integrand_raises():
    with pytest.raises(NumericsError):
        line_quad(lambda x: np.where(x > 0.5, np.inf, 1.0), 1.0)


def test_rounds_stay_within_the_batch(monkeypatch):
    ws = np.arange(1.0, 9.0) * 40.0
    # room for four split intervals per round at eight entries
    monkeypatch.setattr(quadrature, "_BATCH", 4 * 2 * 21 * ws.size)
    sizes = []

    def fn(x):
        sizes.append(x.size)
        return np.cos(np.outer(x, ws))

    val, err = quadrature._adaptive(fn, 0.0, 1.0)
    assert max(sizes) * ws.size <= quadrature._BATCH
    assert np.all(np.abs(val - np.sin(ws) / ws) <= err)


def test_cosine_rule_in_frequency_blocks(monkeypatch):
    sizes = []

    def fn(x):
        sizes.append(x.size)
        return 1.0 / (1.0 + x * x)

    ws = np.linspace(0.01, 8.0, 40)
    whole = quadrature.cosine_quad(fn, ws)
    monkeypatch.setattr(quadrature, "_BATCH", 7 * 1200)
    sizes.clear()
    blocked = quadrature.cosine_quad(fn, ws)
    assert max(sizes) <= quadrature._BATCH
    np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=0.0)
    # integral of cos(w x) / (1 + x^2) over [0, inf) is pi e^-w / 2
    assert np.all(np.abs(whole[0] - 0.5 * np.pi * np.exp(-ws)) <= whole[1])
