"""Fast end-user sanity suite: one reduced-size check per module
invariant family, each reported PASS or FAIL on its own line.

The normalization suite re-derives the constant by quadrature and looks
it up through the qdist module attribute, so a perturbed c_q is caught.
"""

import math

import numpy as np

from . import qcore, qdist, qft, sde
from .qcore import exp_q, ln_q, q_add, q_div, q_prod, q_sub
from .qseq import conj_hat, conj_tilde, dual_additive, dual_multiplicative, z_n


def _first_failure(q, checks, **args):
    """FAIL detail of the first (what, bad) check whose mask flags an
    argument, naming q and that argument; None when all hold."""
    for what, bad in checks:
        hits = np.flatnonzero(bad)
        if hits.size:
            at = ", ".join(f"{k}={v[hits[0]]:.3f}" for k, v in args.items())
            return f"{what} at q={q:.3f}, {at}"
    return None


def _check_exp_log_roundtrip():
    rng = np.random.default_rng(101)
    # three couplings per regime: heavy tail, classical, compact
    for q in [*rng.uniform(-1.9, 0.0, 3), 0.0, *rng.uniform(0.0, 3.0, 3)]:
        x, y = rng.uniform(-2.0, 2.0, 64), rng.uniform(0.1, 5.0, 64)
        keep = 1.0 + q * x >= 1e-3
        x, y = x[keep], y[keep]
        detail = _first_failure(q, [
            ("ln_q(exp_q) drifted",
             np.abs(ln_q(q, exp_q(q, x)) - x) > 1e-10 * (1.0 + np.abs(x))),
            ("exp_q(ln_q) drifted",
             np.abs(exp_q(q, ln_q(q, y)) - y) > 1e-10 * y),
        ], x=x, y=y)
        if detail:
            return detail
    return None


def _check_arithmetic():
    rng = np.random.default_rng(102)
    for q in [*rng.uniform(-1.5, 0.0, 3), 0.0, *rng.uniform(0.0, 1.5, 3)]:
        x, y = rng.uniform(-1.0, 1.0, (2, 32))
        keep = (1.0 + q * np.array([x, y, x + y]) >= 1e-3).all(axis=0)
        x, y = x[keep], y[keep]
        ex, ey, both = exp_q(q, x), exp_q(q, y), exp_q(q, x + y)
        s, prod = q_add(q, x, y), q_prod(q, ex, ey)
        back, quot = q_sub(q, s, y), q_div(q, prod, ey)
        detail = _first_failure(q, [
            ("product rule failed",
             np.abs(ex * ey - exp_q(q, s)) > 1e-10 * (1.0 + ex * ey)),
            ("deformed product failed",
             np.abs(both - prod) > 1e-10 * (1.0 + both)),
            ("q_sub inverse failed", np.abs(back - x) > 1e-10),
            ("q_div inverse failed", np.abs(quot - ex) > 1e-10 * ex),
        ], x=x, y=y)
        if detail:
            return detail
    return None


def _check_dualities():
    rng = np.random.default_rng(103)
    for _ in range(300):
        q = rng.uniform(-1.9, 4.0)
        if abs(q + 2.0) < 0.05 or abs(q + 1.0) < 0.05 or abs(q - 1.0) < 0.05:
            continue
        if abs(q) < 1e-6:
            continue
        for f in (conj_hat, conj_tilde, dual_additive, dual_multiplicative):
            try:
                v = f(f(q))
            except Exception as e:
                return f"{f.__name__} raised at q={q:.3f}: {e}"
            if abs(v - q) > 1e-12 * (1.0 + abs(q)):
                return f"{f.__name__} not involutive at q={q:.3f}"
        for n in (1, 2, 3):
            zn = z_n(q, n)
            if abs(1.0 / zn - (1.0 / q + n / 2.0)) > 1e-10 * (1.0 + abs(1.0 / q)):
                return f"harmonic shift failed at q={q:.3f}, n={n}"
    return None


def _check_calculus():
    h = 1e-5
    x = np.array([-0.4, 0.2, 0.9])
    for q in (-0.8, -0.3, 0.4):
        for a in (0.7, 1.3):
            exact = qcore.dn_exp_q(q, a, 1, x)
            fd = (exp_q(q, a * (x + h)) - exp_q(q, a * (x - h))) / (2.0 * h)
            back = (qcore.intn_exp_q(q, a, 1, x + h)
                    - qcore.intn_exp_q(q, a, 1, x - h)) / (2.0 * h)
            v = exp_q(q, a * x)
            detail = _first_failure(q, [
                ("first derivative off",
                 np.abs(exact - fd) > 1e-4 * (1.0 + np.abs(exact))),
                ("antiderivative off",
                 np.abs(back - v) > 1e-4 * (1.0 + np.abs(back))),
                # decay equation: d/dx exp_q(a x) = a exp_q(a x)^(1-q)
                ("decay equation failed",
                 np.abs(exact - a * v ** (1.0 - q))
                 > 1e-8 * (1.0 + np.abs(exact))),
            ], x=x)
            if detail:
                return detail
    return None


def _check_normalization():
    # quadrature of the bare kernel against the tabulated constant,
    # looked up dynamically so a perturbed c_q is caught here
    for q, beta in ((-1.5, 1.0), (-0.5, 0.37), (0.5, 1.0), (2.0, 1.8)):
        val = qdist.QFamily(q, beta=beta).mass()
        want = qdist.c_q(q) / math.sqrt(beta)
        if abs(val - want) > 1e-6 * want:
            return f"constant mismatch at q={q}: {val} vs {want}"
    return None


def _check_escort():
    xs = np.arange(-60.0, 60.0, 0.01)
    for q in (-0.5, 0.5):
        dist = qdist.QGaussian(q, 0.0, 1.0)
        pdf = qdist.qgaussian_pdf(dist, xs)
        grid = qdist.DensityGrid(xs[0], 0.01, pdf)
        escort = qdist.coupled_density(grid, q)
        mapped_q = q / (1.0 - q)
        mapped_beta = (1.0 - q) * dist.beta
        mapped = qdist.QGaussian(
            mapped_q, 0.0, 1.0 / ((2.0 + mapped_q) * mapped_beta))
        ref = qdist.qgaussian_pdf(mapped, xs)
        if np.abs(escort.f - ref).max() > 1e-5:
            return f"escort closure failed at q={q}"
    return None


def _check_entropy():
    rng = np.random.default_rng(104)
    for q in (-0.7, 0.5, 1.5):
        for n in (3, 6):
            p = rng.dirichlet(np.ones(4))
            r = rng.dirichlet(np.ones(5))
            joint = np.outer(p, r).ravel()
            lhs = qdist.entropy_discrete(joint, q)
            sa = qdist.entropy_discrete(p, q)
            sb = qdist.entropy_discrete(r, q)
            rhs = sa + sb + q * sa * sb
            if abs(lhs - rhs) > 1e-10 * (1.0 + abs(lhs)):
                return f"pseudo-additivity failed at q={q}"
            u = np.full(n, 1.0 / n)
            want = (float(n) ** q - 1.0) / q
            if abs(qdist.entropy_discrete(u, q) - want) > 1e-12 * (1.0 + want):
                return f"uniform entropy failed at q={q}, n={n}"
    return None


def _check_transform_gaussian():
    ws = np.array([0.7, 2.3])
    for q in (-0.5, 0.5):
        shape = qft.QGaussianShape(q, 1.0, 1.0)
        closed = qft.qft_qgaussian_closed(1.0, 1.0, q).evaluate(ws)
        numeric = qft.qft_numeric(shape, q, ws).values.real
        rel = np.abs(numeric - closed) / np.abs(closed)
        if rel.max() > 1e-6:
            return f"closed vs numeric mismatch at q={q}: {rel.max():.2e}"
    return None


def _check_uniform_damping():
    ws = np.arange(0.02, 50.0, 0.02)
    oscillating = qft.qft_uniform_closed(-0.3, ws)
    if not (oscillating < 0.0).any():
        return "expected a sign change at coupling -0.3"
    damped = qft.qft_uniform_closed(-0.4, ws)
    if (damped < 0.0).any():
        return "unexpected sign change at coupling -0.4"
    flat = qft.qft_uniform_closed(1.0, ws)
    if np.abs(flat - 1.0).max() > 1e-9:
        return "coupling 1 transform is not identically one"
    return None


def _check_stationary_law():
    cfg = sde.SdeConfig(M=0.25, A=0.5, tau=0.75, n_paths=60, steps=6000,
                        seed=12)
    rep = sde.fit_qgaussian(sde.simulate(cfg))
    if abs(rep.q_est + 0.5) > 0.2:
        return f"fitted coupling {rep.q_est:.3f} far from -0.5"
    if abs(rep.beta_est - 1.0) > 0.25:
        return f"fitted beta {rep.beta_est:.3f} far from 1"
    return None


_SUITES = [
    ("exp-log-roundtrip", _check_exp_log_roundtrip),
    ("deformed-arithmetic", _check_arithmetic),
    ("coupling-dualities", _check_dualities),
    ("deformed-calculus", _check_calculus),
    ("normalization", _check_normalization),
    ("escort-closure", _check_escort),
    ("entropy-additivity", _check_entropy),
    ("transform-closed-vs-numeric", _check_transform_gaussian),
    ("uniform-damping", _check_uniform_damping),
    ("stationary-law", _check_stationary_law),
]


def run_selfcheck() -> bool:
    """Run every suite, print one PASS/FAIL line each, return overall."""
    all_ok = True
    for name, check in _SUITES:
        try:
            detail = check()
        except Exception as e:
            detail = f"{type(e).__name__}: {e}"
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            all_ok = False
    return all_ok
