"""Command-line frontend.

Subcommands: eval (scalar function evaluation), seq (coupling maps),
dist (distribution utilities), transform (deformed Fourier transforms),
simulate (Langevin runs and fits), figure (datasets behind the standard
figures), selfcheck (fast invariant suites).

Exit codes: 0 success, 1 domain or numeric error (typed error name on
the error stream), 2 usage error. All numeric output uses 12
significant digits and is deterministic given arguments and seed.
"""

import argparse
import math
import os
import sys

from .errors import CouplingError, DomainError

# Each handler imports the modules it runs, so a cold process compiles
# only those: seq and dist cq load no numpy.
_UNARY = ("exp_q", "ln_q", "sin_q", "sinc_q")
_BINARY = ("q_add", "q_sub", "q_prod", "q_div")
_CALCULUS = ("dn_exp_q", "intn_exp_q")

_SEQ_MAPS = {
    "hat": "conj_hat",
    "tilde": "conj_tilde",
    "additive": "dual_additive",
    "multiplicative": "dual_multiplicative",
    "translate": "translate",
}


def _fmt(v) -> str:
    return f"{v + 0.0:.12g}"


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoupling",
        description="translated-coupling deformed algebra toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a deformed function")
    p.add_argument("function", choices=sorted(_UNARY + _BINARY + _CALCULUS))
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--n", type=int, default=1, help="order (calculus only)")
    p.add_argument("--a", type=float, default=1.0,
                   help="rate of the exponent (calculus only)")

    p = sub.add_parser("seq", help="coupling maps and sequences")
    p.add_argument("map", choices=sorted(_SEQ_MAPS) + ["z"])
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n", type=int, default=1, help="sequence index (z only)")
    p.add_argument("--alpha", type=float, default=2.0,
                   help="family power (z only)")

    p = sub.add_parser("dist", help="distribution utilities")
    p.add_argument("what", choices=("cq", "pdf", "sample"))
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma-sq", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None, help="sample count")
    p.add_argument("--seed", type=int, default=None)
    _add_output_flags(p)

    p = sub.add_parser("transform", help="deformed Fourier transforms")
    p.add_argument("family", choices=("gaussian", "uniform"))
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--a", type=float, default=1.0, help="amplitude")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--w-min", type=float, default=-5.0)
    p.add_argument("--w-max", type=float, default=5.0)
    p.add_argument("--n", type=int, default=101, help="frequency count")
    p.add_argument("--method", choices=("closed", "numeric"),
                   default="closed")
    p.add_argument("--conjugate", action="store_true",
                   help="use the conjugate transform")
    _add_output_flags(p)

    p = sub.add_parser("simulate",
                       help="multiplicative-noise Langevin runs")
    p.add_argument("--m", type=float, default=0.25,
                   help="multiplicative noise intensity")
    p.add_argument("--a", type=float, default=0.5,
                   help="additive noise intensity")
    p.add_argument("--tau", type=float, default=0.75, help="drag rate")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=30_000)
    p.add_argument("--n-paths", type=int, default=500)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fit", action="store_true",
                   help="emit the fitted stationary law instead of samples")
    _add_output_flags(p)

    p = sub.add_parser("figure", help="emit a standard figure dataset")
    p.add_argument("id", type=int, choices=(1, 2, 3, 4))
    _add_output_flags(p)

    sub.add_parser("selfcheck", help="run the fast invariant suites")
    return parser


def _emit(dataset, fmt: str, out):
    from . import datasets

    write = datasets.to_csv if fmt == "csv" else datasets.to_json
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            write(dataset, fh)
        return
    write(dataset, sys.stdout)


def _cmd_eval(args, parser):
    from . import qcore

    fn = args.function
    kernel = getattr(qcore, fn)
    if fn in _UNARY:
        value = kernel(args.q, args.x)
    elif fn in _BINARY:
        if args.y is None:
            parser.error(f"eval {fn} requires --y")
        value = kernel(args.q, args.x, args.y)
    else:
        value = kernel(args.q, args.a, args.n, args.x)
    print(_fmt(value))
    return 0


def _cmd_seq(args, parser):
    from . import qseq

    if args.map == "z":
        value = qseq.z_alpha_n(args.q, args.alpha, args.n)
    else:
        value = getattr(qseq, _SEQ_MAPS[args.map])(args.q)
    print(_fmt(value))
    return 0


def _cmd_dist(args, parser):
    if args.what == "cq":
        from . import qseq

        print(_fmt(qseq.c_q(args.q)))
        return 0
    from . import qdist

    dist = qdist.QGaussian(args.q, args.mu, args.sigma_sq)
    if args.what == "pdf":
        if args.x is None:
            parser.error("dist pdf requires --x")
        print(_fmt(qdist.qgaussian_pdf(dist, args.x)))
        return 0
    if args.n is None or args.seed is None:
        parser.error("dist sample requires --n and --seed")
    from .datasets import Dataset

    xs = qdist.sample_qgaussian(dist, args.n, args.seed)
    meta = {"q": args.q, "mu": args.mu, "sigma_sq": args.sigma_sq,
            "seed": args.seed}
    _emit(Dataset(["x"], xs[:, None], meta), args.format, args.out)
    return 0


def _cmd_transform(args, parser):
    import numpy as np

    from . import qft
    from .datasets import Dataset
    from .qseq import _finite

    if args.n < 1:
        parser.error("--n must be >= 1")
    span = _finite(args.w_max, "--w-max") - _finite(args.w_min, "--w-min")
    if not math.isfinite(span):
        raise DomainError(f"--w-max - --w-min = {span} is past the float range")
    ws = np.linspace(args.w_min, args.w_max, args.n)
    meta = {"family": args.family, "q": args.q, "method": args.method,
            "conjugate": bool(args.conjugate)}

    if args.method == "closed":
        if args.family == "uniform":
            closed_fn = (qft.cqft_uniform_closed if args.conjugate
                         else qft.qft_uniform_closed)
            values = closed_fn(args.q, ws)
        else:
            closed_fn = (qft.cqft_qgaussian_closed if args.conjugate
                         else qft.qft_qgaussian_closed)
            form = closed_fn(args.a, args.beta, args.q)
            meta.update(q_out=form.q_out, amplitude=form.amplitude,
                        width=form.width,
                        subnormalizable=form.subnormalizable)
            values = form.evaluate(ws)
        _emit(Dataset(["w", "value"], np.column_stack([ws, values]), meta),
              args.format, args.out)
        return 0

    if args.family == "uniform":
        shape = qft.UniformShape()
    else:
        shape = qft.QGaussianShape(args.q, args.a, args.beta)
    numeric_fn = qft.cqft_numeric if args.conjugate else qft.qft_numeric
    result = numeric_fn(shape, args.q, ws)
    meta.update(est_abs_error=result.est_abs_error,
                subnormalizable=result.subnormalizable)
    if result.q_out is not None:
        meta.update(q_out=result.q_out)
    table = np.column_stack([ws, result.values.real, result.values.imag])
    _emit(Dataset(["w", "re", "im"], table, meta), args.format, args.out)
    return 0


def _cmd_simulate(args, parser):
    import numpy as np

    from . import sde
    from .datasets import Dataset

    cfg = sde.SdeConfig(M=args.m, A=args.a, tau=args.tau, dt=args.dt,
                        steps=args.steps, n_paths=args.n_paths,
                        burn_in=args.burn_in, seed=args.seed)
    xs = sde.simulate(cfg)
    meta = {"M": cfg.M, "A": cfg.A, "tau": cfg.tau, "dt": cfg.dt,
            "steps": cfg.steps, "n_paths": cfg.n_paths,
            "burn_in": cfg.burn_in, "seed": cfg.seed}
    if args.fit:
        pred = sde.predicted_stationary(cfg.M, cfg.tau, cfg.A)
        rep = sde.fit_qgaussian(xs)
        columns = ["q_est", "beta_est", "mu_est", "loglik", "n",
                   "converged", "q_pred", "beta_pred", "q_hat_pred"]
        row = [rep.q_est, rep.beta_est, rep.mu_est, rep.loglik, rep.n,
               rep.converged, pred.q, pred.beta, pred.q_hat]
        _emit(Dataset(columns, [row], meta), args.format, args.out)
        return 0
    per_path = cfg.samples_per_path
    paths = np.repeat(np.arange(cfg.n_paths, dtype=float), per_path)
    steps = np.tile(cfg.burn_in + cfg.stride * np.arange(per_path, dtype=float),
                    cfg.n_paths)
    table = np.column_stack([paths, steps, xs])
    _emit(Dataset(["path", "step", "x"], table, meta), args.format, args.out)
    return 0


def _cmd_figure(args, parser):
    from . import datasets

    _emit(datasets.figure_dataset(args.id), args.format, args.out)
    return 0


def _cmd_selfcheck(args, parser):
    from . import selfcheck

    return 0 if selfcheck.run_selfcheck() else 1


_HANDLERS = {
    "eval": _cmd_eval,
    "seq": _cmd_seq,
    "dist": _cmd_dist,
    "transform": _cmd_transform,
    "simulate": _cmd_simulate,
    "figure": _cmd_figure,
    "selfcheck": _cmd_selfcheck,
}


def run(argv=None) -> int:
    parser = build_parser()
    code = 0
    try:
        args = parser.parse_args(argv)
        code = _HANDLERS[args.command](args, parser)
        sys.stdout.flush()
        return code
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except BrokenPipeError:
        # the reader left (`| head`): flush the rest into the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code
    except (CouplingError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
