"""The four workloads: seeded inputs, the fixed operation mix of one pass,
and how a run makes passes and counts failed operations.

A pass runs every operation of its workload once, in a fixed order, from a
single client that waits for each result (a closed loop with one client).
Every operation carries the span name its layer is reported under in a
traced pass and a check that compares its output with a computation made
apart from the program (see checks.py).

Operations look the program's functions up through their modules at call
time, so a traced pass sees the wrappers that tracing.py puts on module
attributes; a timed pass runs the same closures with no wrapper installed.
"""

import hashlib
import os
import subprocess
import sys
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# What a fresh interpreter imports to run each workload; set-up time is
# the cost of this import plus building the inputs.
IMPORTS = {
    "cli-cold": "qcoupling.cli",
    "transform-sweep": "qcoupling.qft",
    "stochastic": "qcoupling.sde",
    "emit": "qcoupling.cli",
}


def child_env() -> dict:
    """Environment of every process the benchmark starts: this one's,
    where run.py has pinned BLAS and OpenMP to one thread, with the
    package's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Op(NamedTuple):
    name: str
    span: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # what must repeat exactly from pass to pass
    key: Callable[[object], object] = lambda out: out
    # a fault the program has today: the op is expected to fail its check
    known_fault: bool = False


class Tally:
    """Failed operations over the passes of one run.

    An operation fails in a pass when it raises, when its output differs
    from the warm-up pass, or when its output fails its check (the check
    runs once, on the last pass)."""

    def __init__(self, ops):
        self.ops = ops
        self.ref = None
        self.per_pass = []
        self.checked = set()
        self.reasons = {}

    def add(self, outs):
        failed = set()
        keys = []
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            if isinstance(out, Exception):
                failed.add(i)
                self.reasons.setdefault(i, f"raised {out!r}")
                keys.append(None)
                continue
            keys.append(fingerprint(op.key(out)))
        if self.ref is None:
            self.ref = keys
        for i, (k, ref) in enumerate(zip(keys, self.ref)):
            if k != ref and i not in failed:
                failed.add(i)
                self.reasons.setdefault(i, "output differs from the warm-up")
        self.per_pass.append(failed)

    def check(self, outs):
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            if isinstance(out, Exception):
                continue
            try:
                reason = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                reason = f"check raised {exc!r}"
            if reason:
                self.checked.add(i)
                self.reasons.setdefault(i, reason)

    def summary(self):
        failed = sum(len(f | self.checked) for f in self.per_pass)
        unexpected = [i for i in self.reasons if not self.ops[i].known_fault]
        for i, reason in sorted(self.reasons.items()):
            tag = "known fault" if self.ops[i].known_fault else "FAILED"
            print(f"  {tag}: {self.ops[i].name}: {reason}", file=sys.stderr)
        return not unexpected, len(self.ops) * len(self.per_pass), failed


def run_pass(ops, span=None):
    """One pass over the operations in order; an exception is kept as the
    operation's output and reported with its traceback."""
    outs = []
    for op in ops:
        try:
            if span is None:
                outs.append(op.run())
            else:
                with span(op.span):
                    outs.append(op.run())
        except Exception as exc:
            traceback.print_exc()
            outs.append(exc)
    return outs


def fingerprint(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def _feed(h, v):
    if isinstance(v, np.ndarray):
        h.update(f"{v.dtype}{v.shape}".encode())
        h.update(np.ascontiguousarray(v).tobytes())
    elif isinstance(v, bytes):
        h.update(v)
    elif isinstance(v, str):
        h.update(v.encode())
    elif isinstance(v, (tuple, list)):
        h.update(b"(")
        for x in v:
            _feed(h, x)
        h.update(b")")
    else:
        h.update(repr(v).encode())


def peak_rss_kb() -> int:
    """High-water resident set of this process since it was exec'ed.

    getrusage's ru_maxrss also counts the memory of the process that
    started this one, which execve carries over; VmHWM does not."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _draw(rng, lo, hi, digits=4) -> float:
    """A seeded value with a short decimal form, so the argument string
    the CLI parses and the float the checks use are the same number."""
    return round(float(rng.uniform(lo, hi)), digits)


def _coupling(rng, lo, hi) -> float:
    """A seeded coupling in [lo, hi] at least 0.05 away from zero."""
    q = _draw(rng, lo, hi)
    return q if abs(q) >= 0.05 else q + 0.1


def _call(module, attr, *args):
    return lambda: getattr(module, attr)(*args)


# ---------------------------------------------------------------- cli-cold

class CliRun(NamedTuple):
    rc: int
    out: str
    err: str
    maxrss_kb: int


def run_cli(args) -> CliRun:
    """One fresh `python -m qcoupling.cli` process, waited for with
    wait4 so that its own peak memory is known."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "cli.stdout", WORK / "cli.stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen(
            [sys.executable, "-m", "qcoupling.cli", *args],
            stdout=fo, stderr=fe, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(proc.returncode, out_path.read_text(), err_path.read_text(),
                  usage.ru_maxrss)


def _cli_op(args, check, key=lambda r: (r.rc, r.out), known_fault=False):
    args = [str(a) for a in args]
    return Op(" ".join(args), f"cli.{args[0]}", partial(run_cli, args),
              check, key, known_fault)


def cli_cold(seed):
    rng = np.random.default_rng(seed)
    q1, x1 = _coupling(rng, -0.9, 1.5), _draw(rng, -0.5, 1.0)
    q2, x2, y2 = (_coupling(rng, -0.9, 1.5), _draw(rng, 0.8, 2.0),
                  _draw(rng, 0.8, 2.0))
    q3 = _draw(rng, -1.5, 5.0)
    q4 = _coupling(rng, -1.9, 6.0)
    q5, mu5, s5 = (_coupling(rng, -1.5, 3.0), _draw(rng, -1.0, 1.0),
                   _draw(rng, 0.5, 2.0))
    # inside half of the support when it is compact
    half5 = (checks.qgaussian_support_half(q5, s5) if q5 > 0 else 2.0) / 2
    x5 = round(mu5 + float(rng.uniform(-half5, half5)), 4)
    q6, a6, b6 = (_coupling(rng, -0.4, 1.5), _draw(rng, 0.8, 1.25),
                  _draw(rng, 0.8, 1.25))
    return [
        _cli_op(["eval", "exp_q", "--q", q1, "--x", x1],
                partial(checks.cli_value, want=checks.exp_q(q1, x1))),
        _cli_op(["eval", "q_prod", "--q", q2, "--x", x2, "--y", y2],
                partial(checks.cli_value, want=checks.q_prod(q2, x2, y2))),
        _cli_op(["seq", "hat", "--q", q3],
                partial(checks.cli_value, want=-2.0 * q3 / (2.0 + q3))),
        _cli_op(["dist", "cq", "--q", q4],
                partial(checks.cli_value, want=checks.c_q(q4))),
        _cli_op(["dist", "pdf", "--q", q5, "--mu", mu5, "--sigma-sq", s5,
                 "--x", x5],
                partial(checks.cli_value,
                        want=checks.qgaussian_pdf(q5, mu5, s5, x5))),
        _cli_op(["transform", "gaussian", "--conjugate", "--q", q6,
                 "--a", a6, "--beta", b6, "--format", "json"],
                partial(checks.cli_conjugate_transform, q=q6, a=a6, beta=b6)),
        _cli_op(["figure", "3"], checks.cli_figure3),
        # selfcheck is compared on its verdict lines only, so that a suite
        # report which adds timings still repeats
        _cli_op(["selfcheck"], checks.cli_selfcheck,
                key=lambda r: (r.rc, [ln.split()[:2]
                                      for ln in r.out.splitlines()])),
        # Known faults, on inputs that do not depend on the seed: a bare
        # OverflowError with a traceback, and inf samples with exit 0.
        _cli_op(["eval", "exp_q", "--q", 0, "--x", 1000],
                checks.cli_typed_or_value, known_fault=True),
        _cli_op(["dist", "sample", "--q", -1.999, "--n", 5, "--seed", 1],
                checks.cli_typed_or_finite_rows, known_fault=True),
    ]


# --------------------------------------------------------- transform-sweep

WS_CLI = np.linspace(-5.0, 5.0, 101)       # the CLI's default grid
WS_SCRIPT = np.linspace(-5.0, 5.0, 41)     # scripts/transform_validation.py


def _transform_key(r):
    return (r.values, r.est_abs_error, r.q_out, r.subnormalizable)


def transform_sweep(seed):
    from qcoupling import qdist, qft

    rng = np.random.default_rng(seed)
    a, beta = _draw(rng, 0.9, 1.1), _draw(rng, 0.9, 1.1)
    q_uniform = _coupling(rng, -0.6, 0.6)
    ops = []

    def gauss(route, q, ws, conjugate=False):
        fn = "cqft_numeric" if conjugate else "qft_numeric"
        ops.append(Op(
            f"{fn} gaussian q={q} n={ws.size}", f"qft.{route}",
            _call(qft, fn, qft.QGaussianShape(q, a, beta), q, ws),
            partial(checks.qgaussian_transform, q=q, a=a, beta=beta, ws=ws,
                    conjugate=conjugate),
            _transform_key))

    gauss("heavy_tail", -1.5, WS_CLI)
    gauss("heavy_tail", -0.5, WS_CLI)
    gauss("classical", 0.0, WS_CLI)
    gauss("compact", 0.5, WS_SCRIPT)
    gauss("compact", 1.0, WS_SCRIPT)
    gauss("conjugate", 0.5, WS_SCRIPT, conjugate=True)
    gauss("conjugate", -0.5, WS_SCRIPT, conjugate=True)
    ops.append(Op(
        f"qft_numeric uniform q={q_uniform} n=101", "qft.uniform",
        _call(qft, "qft_numeric", qft.UniformShape(), q_uniform, WS_CLI),
        partial(checks.uniform_transform, q=q_uniform, ws=WS_CLI),
        _transform_key))
    for q in (0.0, -0.5):
        ops.append(Op(
            f"qft_numeric alpha=1 q={q} n=41", "qft.alpha",
            _call(qft, "qft_numeric", qft.QAlphaShape(q, 1.0, a, beta), q,
                  WS_SCRIPT),
            partial(checks.alpha1_transform, q=q, a=a, beta=beta,
                    ws=WS_SCRIPT),
            _transform_key))
    # odd point count: the grid route's half-step error estimate is only
    # sound on odd-length grids
    xs = np.linspace(-20.0, 20.0, 4001)
    f = a * checks.exp_q(-0.5, -beta * xs * xs)
    grid = qdist.DensityGrid(-20.0, 0.01, f)
    ops.append(Op(
        "qft_numeric grid q=-0.5 n=101", "qft.grid",
        _call(qft, "qft_numeric", grid, -0.5, WS_CLI),
        partial(checks.grid_transform, f=f, dx=0.01, ws=WS_CLI),
        _transform_key))
    return ops


# -------------------------------------------------------------- stochastic

DEFAULT_ENSEMBLE = dict(n_paths=500, steps=30_000)
WIDE_ENSEMBLE = dict(n_paths=5000, steps=1500)
SAMPLER_COUPLINGS = (-1.5, -0.5, 0.5, 2.0)   # gamma, summed normals, rejection
SAMPLE_COUNT = 10**6


def stochastic(seed):
    from qcoupling import qdist, sde

    rng = np.random.default_rng(seed)
    seeds = [int(s)
             for s in rng.integers(0, 2**31, 2 + len(SAMPLER_COUPLINGS))]
    default = sde.SdeConfig(seed=seeds[0], **DEFAULT_ENSEMBLE)
    wide = sde.SdeConfig(seed=seeds[1], **WIDE_ENSEMBLE)
    state = {}

    def simulate_default():
        state["xs"] = sde.simulate(default)
        return state["xs"]

    ops = [
        Op("simulate 500x30000", "sde.simulate", simulate_default,
           partial(checks.ensemble, cfg=default)),
        Op("fit_qgaussian", "sde.fit",
           lambda: tuple(sde.fit_qgaussian(state["xs"])),
           partial(checks.fit, cfg=default)),
        Op("simulate 5000x1500", "sde.simulate_wide",
           _call(sde, "simulate", wide),
           partial(checks.ensemble, cfg=wide)),
    ]
    for q, s in zip(SAMPLER_COUPLINGS, seeds[2:]):
        mu, sigma_sq = _draw(rng, -1.0, 1.0), _draw(rng, 0.5, 2.0)
        ops.append(Op(
            f"sample_qgaussian q={q} n=1e6", "qdist.sample",
            _call(qdist, "sample_qgaussian", qdist.QGaussian(q, mu, sigma_sq),
                  SAMPLE_COUNT, s),
            partial(checks.samples, q=q, mu=mu, sigma_sq=sigma_sq,
                    n=SAMPLE_COUNT)))
    return ops


# -------------------------------------------------------------------- emit

class Emitted(NamedTuple):
    rc: int
    path: Path


def _emit_op(args, path, check):
    from qcoupling import cli

    args = [str(a) for a in args] + ["--out", str(path)]

    def run():
        return Emitted(cli.run(args), path)

    return Op(" ".join(args[:-2]), "cli.run", run, check,
              key=lambda e: (e.rc, e.path.read_bytes()))


def emit(seed):
    rng = np.random.default_rng(seed)
    q, seed_sample, seed_sim = (_coupling(rng, -1.2, -0.2),
                                int(rng.integers(0, 2**31)),
                                int(rng.integers(0, 2**31)))
    WORK.mkdir(exist_ok=True)
    csv_path, json_path = WORK / "emit-sample.csv", WORK / "emit-sample.json"
    sample = ["dist", "sample", "--q", q, "--n", 200_000,
              "--seed", seed_sample]
    # stride 12 after a burn-in of 112 steps: 241 rows per path
    sim = dict(M=0.25, A=0.5, tau=9.0, dt=0.01, steps=3000, n_paths=400)
    return [
        _emit_op(sample, csv_path, partial(
            checks.emitted_samples, q=q, n=200_000, other=json_path)),
        _emit_op(sample + ["--format", "json"], json_path, partial(
            checks.emitted_samples, q=q, n=200_000, other=csv_path)),
        _emit_op(["simulate", "--m", sim["M"], "--a", sim["A"], "--tau",
                  sim["tau"], "--dt", sim["dt"], "--steps", sim["steps"],
                  "--n-paths", sim["n_paths"], "--seed", seed_sim],
                 WORK / "emit-simulate.csv",
                 partial(checks.emitted_simulation, **sim)),
        _emit_op(["figure", 2, "--format", "json"], WORK / "emit-figure2.json",
                 checks.emitted_figure2),
        _emit_op(["figure", 4], WORK / "emit-figure4.csv",
                 checks.emitted_figure4),
    ]


BUILDERS = {
    "cli-cold": cli_cold,
    "transform-sweep": transform_sweep,
    "stochastic": stochastic,
    "emit": emit,
}
IN_PROCESS = ("transform-sweep", "stochastic", "emit")
