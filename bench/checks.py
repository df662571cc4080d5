"""Output checks, computed apart from the program.

Every reference value here comes from a formula written in this file,
from scipy's distributions or from an mpmath quadrature, never from
qcoupling itself and never from a stored copy of earlier output. Each
check returns None when the output is right, else a one-line reason.

The checks run once per run, on the outputs of the last timed pass; the
benchmark separately requires every pass to reproduce the warm-up pass
exactly.
"""

import csv
import io
import json
import math

import numpy as np

# Acceptance criterion 01: sup |numeric - closed| <= 1e-6 * max |closed|.
TRANSFORM_RTOL = 1e-6
# Printed values carry 12 significant digits.
PRINT_RTOL = 2e-11
# Kolmogorov-Smirnov p-value below which a sampler is rejected.
KS_MIN_P = 1e-6
# Stationary-law tolerances on the fitted (q, beta), a third and a
# quarter of acceptance criterion 11's: over twelve seeds the fit of the
# default ensemble stayed within 0.01 of both.
FIT_Q_TOL, FIT_BETA_TOL = 0.05, 0.05
# Relative tolerance on the sample interquartile range of an ensemble.
IQR_RTOL = 0.1


# ------------------------------------------------------------- formulas

def exp_q(q, x):
    """(1 + q x)_+^(1/q); exp(x) at q = 0; +inf past the pole for q < 0."""
    x = np.asarray(x, dtype=float)
    if q == 0.0:
        return np.exp(x)
    base = 1.0 + q * x
    pos = base > 0.0
    out = np.full(x.shape, 0.0 if q > 0.0 else np.inf)
    out[pos] = base[pos] ** (1.0 / q)
    return out if out.ndim else float(out)


def q_prod(q, x, y):
    return float((x ** q + y ** q - 1.0) ** (1.0 / q))


def c_q(q) -> float:
    """Integral of exp_q(-x^2) over the line, from Beta-function forms."""
    import mpmath as mp

    with mp.workdps(30):
        q = mp.mpf(q)
        if q == 0:
            return float(mp.sqrt(mp.pi))
        if q > 0:
            r = 1 / q
            return float(mp.sqrt(mp.pi * r) * mp.gamma(r + 1)
                         / mp.gamma(r + mp.mpf(3) / 2))
        r = -1 / q
        return float(mp.sqrt(mp.pi * r) * mp.gamma(r - mp.mpf(1) / 2)
                     / mp.gamma(r))


def qgaussian_beta(q, sigma_sq):
    return 1.0 / ((2.0 + q) * sigma_sq)


def qgaussian_support_half(q, sigma_sq):
    return 1.0 / math.sqrt(q * qgaussian_beta(q, sigma_sq))


def qgaussian_pdf(q, mu, sigma_sq, x):
    beta = qgaussian_beta(q, sigma_sq)
    u = np.asarray(x, dtype=float) - mu
    return math.sqrt(beta) / c_q(q) * exp_q(q, -beta * u * u)


def sinc_q(q, x):
    """Im((1 + i q x)^(1/q)) / x, the odd part of exp_q(i x) over x."""
    x = np.asarray(x, dtype=float)
    if q == 0.0:
        s = np.sin(x)
    else:
        s = np.power(1.0 + 1j * q * x, 1.0 / q).imag
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = s[nz] / x[nz]
    return out


def qgaussian_transform_closed(q, a, beta, ws):
    """Transform of a exp_q(-beta x^2): amplitude a c_q / sqrt(beta),
    width (2+q)/(8 beta a^(2q)), output coupling 2q/(2+q)."""
    amp = a * c_q(q) / math.sqrt(beta)
    width = (2.0 + q) / (8.0 * beta * a ** (2.0 * q))
    q_out = 2.0 * q / (2.0 + q)
    return amp * exp_q(q_out, -width * ws * ws), amp, width, q_out


def stationary_law(M, tau, A):
    """(q, beta) of the Langevin model's stationary density."""
    return -2.0 * M / (tau + M), (tau + M) / (2.0 * A)


def scipy_law(q, mu, sigma_sq):
    """The generalized Gaussian as a scipy distribution: a scaled Student
    t for q < 0, a scaled symmetric beta for q > 0."""
    from scipy import stats

    if q < 0.0:
        return stats.t(df=-2.0 / q - 1.0, loc=mu, scale=math.sqrt(sigma_sq))
    half = qgaussian_support_half(q, sigma_sq)
    return stats.beta(1.0 / q + 1.0, 1.0 / q + 1.0, loc=mu - half,
                      scale=2.0 * half)


def alpha1_oracle(q, a, beta, w):
    """mpmath quadrature of f(x) exp_q(i x w f(x)^-q) over the line for
    f = a exp_q(-beta |x|), q < 0. The result is real by symmetry."""
    import mpmath as mp

    with mp.workdps(25):
        q, a, beta, w = (mp.mpf(v) for v in (q, a, beta, w))

        def integrand(x):
            f = a * (1 - q * beta * x) ** (1 / q)
            y = x * w * f ** (-q)
            return (f * (1 + 1j * q * y) ** (1 / q)).real

        return float(2 * mp.quad(integrand, [0, 1, 10, 100, 1000, mp.inf]))


# ------------------------------------------------------------- helpers

def _close(got, want, rtol=PRINT_RTOL, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):
        ok = (got == want) | (np.abs(got - want) <= atol + rtol * np.abs(want))
    return bool(np.all(ok))


def _transform_error(result, ref, ws):
    if not np.array_equal(result.ws, ws):
        return "frequency grid changed"
    scale = float(np.abs(ref).max())
    sup = float(np.abs(result.values - ref).max())
    if not sup <= TRANSFORM_RTOL * scale:
        return f"sup error {sup:.3e} > {TRANSFORM_RTOL:g} * {scale:.4g}"
    return None


def _ks(xs, law, what):
    from scipy import stats

    if not np.all(np.isfinite(xs)):
        return f"{what}: non-finite samples"
    p = stats.kstest(xs, law.cdf).pvalue
    if not p >= KS_MIN_P:
        return f"{what}: Kolmogorov-Smirnov p = {p:.3g} < {KS_MIN_P:g}"
    return None


def _sample_steps(tau, dt, steps):
    """Steps at which each path is sampled: after ten relaxation times,
    then one relaxation time apart (the layout SdeConfig documents)."""
    burn_in = math.ceil(10.0 / (tau * dt))
    stride = max(1, math.ceil(1.0 / (tau * dt)))
    return np.arange(burn_in, steps + 1, stride)


def _iqr_error(xs, M, tau, A):
    q, beta = stationary_law(M, tau, A)
    law = scipy_law(q, 0.0, 1.0 / ((2.0 + q) * beta))
    want = law.ppf(0.75) - law.ppf(0.25)
    p25, p75 = np.percentile(xs, [25.0, 75.0])
    got = p75 - p25
    if not abs(got - want) <= IQR_RTOL * want:
        return f"sample IQR {got:.4g} vs stationary {want:.4g}"
    return None


def _read_table(path):
    """(columns, rows array, meta) of an emitted CSV or JSON dataset."""
    text = path.read_text()
    if path.suffix == ".json":
        obj = json.loads(text)
        return (obj["columns"], np.array(obj["rows"], dtype=float),
                obj.get("meta", {}))
    lines = list(csv.reader(io.StringIO(text)))
    return lines[0], np.array(lines[1:], dtype=float), {}


def _coupling_error_names():
    """Names of the program's typed errors, read from its class tree."""
    from qcoupling import errors

    names, todo = set(), [errors.CouplingError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _typed_error(r):
    """None if the process failed cleanly: exit 1, a CouplingError
    subclass named on stderr and no traceback."""
    last = r.err.strip().splitlines()[-1] if r.err.strip() else ""
    name = last.split(":", 1)[0]
    if r.rc == 1 and "Traceback" not in r.err and \
            name in _coupling_error_names():
        return None
    return f"exit {r.rc}, stderr ends {last[:80]!r}"


# ----------------------------------------------------- cli-cold checks

def cli_value(r, want):
    if r.rc != 0:
        return f"exit {r.rc}: {r.err.strip()[-120:]}"
    got = float(r.out.strip())
    if not _close(got, want):
        return f"printed {got!r}, formula gives {want!r}"
    return None


def cli_conjugate_transform(r, q, a, beta):
    if r.rc != 0:
        return f"exit {r.rc}"
    obj = json.loads(r.out)
    rows = np.array(obj["rows"], dtype=float)
    ws = np.linspace(-5.0, 5.0, 101)
    qt = -q / (1.0 + q)
    ref, amp, width, q_out = qgaussian_transform_closed(qt, a, beta, ws)
    meta = obj["meta"]
    if obj["columns"] != ["w", "value"] or rows.shape != (101, 2):
        return f"table {obj['columns']} {rows.shape}"
    if not _close(rows[:, 0], ws, atol=1e-15):
        return "frequency column differs from the default grid"
    if not _close([meta["amplitude"], meta["width"], meta["q_out"]],
                  [amp, width, q_out], rtol=1e-12):
        return f"meta {meta} vs amplitude {amp}, width {width}, q_out {q_out}"
    if not _close(rows[:, 1], ref, atol=1e-300):
        return "values differ from the closed form"
    return None


def cli_figure3(r):
    if r.rc != 0:
        return f"exit {r.rc}"
    lines = r.out.strip().splitlines()
    if lines[0] != "q,c_q,c_hat,ratio":
        return f"header {lines[0]!r}"
    for line in lines[1:]:
        q, cq, ch, ratio = (float(v) for v in line.split(","))
        want_cq, want_ch = c_q(q), c_q(-2.0 * q / (2.0 + q))
        if not _close([cq, ch, ratio], [want_cq, want_ch, want_ch / want_cq]):
            return f"row {line!r}: c_q {want_cq}, c_hat {want_ch}"
    return None


def cli_selfcheck(r):
    lines = [ln for ln in r.out.splitlines() if ln.strip()]
    if r.rc != 0 or not lines or any(not ln.startswith("PASS")
                                     for ln in lines):
        return f"exit {r.rc}, {r.out.strip()[-120:]!r}"
    return None


def cli_typed_or_value(r):
    """Exit 0 with a finite or infinite value, or a clean typed error."""
    if r.rc == 0:
        try:
            float(r.out.strip())
            return None
        except ValueError:
            return f"exit 0 with unparsable output {r.out[:80]!r}"
    return _typed_error(r)


def cli_typed_or_finite_rows(r):
    """Exit 0 with only finite samples, or a clean typed error."""
    if r.rc == 0:
        values = np.array(r.out.strip().splitlines()[1:], dtype=float)
        if np.all(np.isfinite(values)):
            return None
        return f"exit 0 with {int(np.sum(~np.isfinite(values)))} " \
               "non-finite samples"
    return _typed_error(r)


# ---------------------------------------------- transform-sweep checks

def qgaussian_transform(result, q, a, beta, ws, conjugate):
    qq = -q / (1.0 + q) if conjugate else q
    ref, _, _, q_out = qgaussian_transform_closed(qq, a, beta, ws)
    if result.q_out is None or abs(result.q_out - q_out) > 1e-12:
        return f"q_out {result.q_out} vs {q_out}"
    return _transform_error(result, ref, ws)


def uniform_transform(result, q, ws):
    q2 = q / (1.0 + q)
    ref = sinc_q(q2, (1.0 + q) * 2.0 ** q * ws)
    return _transform_error(result, ref, ws)


def alpha1_transform(result, q, a, beta, ws):
    if q == 0.0:
        return _transform_error(result, 2.0 * a * beta / (beta ** 2 + ws ** 2),
                                ws)
    # w = 0 (its mass 2a/(beta (1+q)) vets the oracle), then two more
    picks = [ws.size // 2, ws.size * 3 // 4, ws.size - 1]
    want = np.array([alpha1_oracle(q, a, beta, ws[i]) for i in picks])
    mass = 2.0 * a / (beta * (1.0 + q))
    if ws[picks[0]] != 0.0 or not _close(want[0], mass, rtol=1e-12):
        return f"oracle mass {want[0]} vs {mass}"
    got = result.values[picks]
    err = float(np.abs(got - want).max())
    if not err <= TRANSFORM_RTOL * float(np.abs(want).max()):
        return f"error {err:.3e} against the mpmath oracle"
    return None


def grid_transform(result, f, dx, ws):
    zero = np.flatnonzero(ws == 0.0)
    if zero.size != 1:
        return "grid has no w = 0"
    mass = dx * (float(f.sum()) - 0.5 * (f[0] + f[-1]))
    got = result.values[zero[0]]
    if not (abs(got.real - mass) <= 1e-12 * mass and abs(got.imag) <= 1e-15):
        return f"value at w=0 {got} vs trapezoid mass {mass}"
    if not np.all(np.abs(result.values) <= mass * (1.0 + 1e-12)):
        return "modulus exceeds the mass"
    return None


# --------------------------------------------------- stochastic checks

def ensemble(xs, cfg):
    want = cfg.n_paths * _sample_steps(cfg.tau, cfg.dt, cfg.steps).size
    if xs.shape != (want,):
        return f"shape {xs.shape}, want {want}"
    if not np.all(np.isfinite(xs)):
        return "non-finite ensemble values"
    return _iqr_error(xs, cfg.M, cfg.tau, cfg.A)


def fit(rep, cfg):
    q_est, beta_est, _, _, n, converged = rep
    q, beta = stationary_law(cfg.M, cfg.tau, cfg.A)
    if not converged:
        return "fit did not converge"
    if abs(q_est - q) > FIT_Q_TOL or abs(beta_est - beta) > FIT_BETA_TOL:
        return f"fit (q, beta) = ({q_est:.4g}, {beta_est:.4g}), " \
               f"stationary ({q:.4g}, {beta:.4g})"
    return None


def samples(xs, q, mu, sigma_sq, n):
    if xs.shape != (n,):
        return f"shape {xs.shape}"
    if q > 0.0:
        half = qgaussian_support_half(q, sigma_sq)
        if not np.all(np.abs(xs - mu) <= half):
            return "samples outside the compact support"
    return _ks(xs, scipy_law(q, mu, sigma_sq), f"q={q}")


# --------------------------------------------------------- emit checks

def emitted_samples(e, q, n, other):
    if e.rc != 0:
        return f"exit {e.rc}"
    cols, rows, _ = _read_table(e.path)
    _, other_rows, _ = _read_table(other)
    if cols != ["x"] or rows.shape != (n, 1):
        return f"table {cols} {rows.shape}"
    if other_rows.shape != rows.shape or not _close(
            rows, other_rows, rtol=1e-12):
        return "CSV and JSON disagree beyond 12 significant digits"
    return _ks(rows[:, 0], scipy_law(q, 0.0, 1.0), f"q={q}")


def emitted_simulation(e, M, A, tau, dt, steps, n_paths):
    if e.rc != 0:
        return f"exit {e.rc}"
    cols, rows, _ = _read_table(e.path)
    sampled = _sample_steps(tau, dt, steps)
    if cols != ["path", "step", "x"] or \
            rows.shape != (n_paths * sampled.size, 3):
        return f"table {cols} {rows.shape}"
    path = np.repeat(np.arange(n_paths), sampled.size)
    step = np.tile(sampled, n_paths)
    if not (np.array_equal(rows[:, 0], path)
            and np.array_equal(rows[:, 1], step)):
        return "path/step columns out of order"
    if not np.all(np.isfinite(rows[:, 2])):
        return "non-finite positions"
    return _iqr_error(rows[:, 2], M, tau, A)


def emitted_figure2(e):
    if e.rc != 0:
        return f"exit {e.rc}"
    cols, rows, meta = _read_table(e.path)
    xs = np.arange(-300, 301) / 100.0
    couplings = meta.get("couplings", [])
    if cols != ["q", "x", "pdf"] or rows.shape != (
            2 * len(couplings) * xs.size, 3) or not couplings:
        return f"table {cols} {rows.shape}"
    for k, q in enumerate(couplings):
        # each coupling and its matched-amplitude conjugate partner
        q_hat = -2.0 * q / (2.0 + q)
        for j, (qq, s) in enumerate(((q, 1.0), (q_hat, 2.0 / (2.0 + q)))):
            block = rows[(2 * k + j) * xs.size:(2 * k + j + 1) * xs.size]
            if not (_close(block[:, 0], qq) and _close(block[:, 1], xs)):
                return f"coupling/x columns of block q={qq:.6g}"
            if not _close(block[:, 2], qgaussian_pdf(qq, 0.0, s, xs),
                          rtol=1e-10, atol=1e-300):
                return f"pdf of q={qq:.6g} differs from the formula"
    return None


def emitted_figure4(e):
    if e.rc != 0:
        return f"exit {e.rc}"
    cols, rows, _ = _read_table(e.path)
    ws = np.arange(0, 1001) * 0.05
    if cols != ["q", "w", "value"] or rows.shape[0] % ws.size or \
            rows.shape[0] == 0:
        return f"table {cols} {rows.shape}"
    for block in rows.reshape(-1, ws.size, 3):
        q = float(block[0, 0])
        if not (np.all(block[:, 0] == q) and _close(block[:, 1], ws)):
            return f"coupling/w columns of block q={q:.6g}"
        if abs(1.0 + q) < 1e-9:
            return "coupling at the pole -1"
        ref = sinc_q(q / (1.0 + q), (1.0 + q) * 2.0 ** q * ws)
        if not _close(block[:, 2], ref, rtol=1e-9, atol=1e-10):
            return f"uniform transform of q={q:.6g} differs from sinc_q"
    return None
