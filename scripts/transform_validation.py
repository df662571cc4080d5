#!/usr/bin/env python3
"""Cross-validate the closed-form deformed Fourier transform of the
generalized Gaussian against direct quadrature, across couplings and
both transform orientations, and print a sup-error table."""

import argparse
import time

import numpy as np

from qcoupling import qft
from qcoupling.errors import PoleError
from qcoupling.qseq import conj_tilde


def validate(q, ws, a, beta, conjugate):
    shape = qft.QGaussianShape(q, a, beta)
    if conjugate:
        closed = qft.cqft_qgaussian_closed(a, beta, q)
        result = qft.cqft_numeric(shape, q, ws)
    else:
        closed = qft.qft_qgaussian_closed(a, beta, q)
        result = qft.qft_numeric(shape, q, ws)
    ref = closed.evaluate(ws)
    scale = np.abs(ref).max()
    sup = np.abs(result.values - ref).max()
    return sup / scale, result.est_abs_error / scale, closed.q_out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--couplings", type=float, nargs="+",
                    default=[-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--w-max", type=float, default=5.0)
    ap.add_argument("--n", type=int, default=41)
    ap.add_argument("--conjugate", action="store_true")
    args = ap.parse_args()

    ws = np.linspace(-args.w_max, args.w_max, args.n)
    kind = "conjugate" if args.conjugate else "direct"
    print(f"{kind} transform, a={args.a}, beta={args.beta}, "
          f"{args.n} frequencies on [{-args.w_max}, {args.w_max}]")
    print(f"{'q':>8} {'q_out':>10} {'sup rel err':>12} {'est err':>10} "
          f"{'time [s]':>9}")
    for q in args.couplings:
        if args.conjugate:
            try:
                excluded = "excluded band" if conj_tilde(q) <= -2.0 else None
            except PoleError:
                excluded = "excluded pole"
            if excluded:
                print(f"{q:>8.3g} {excluded:>23}")
                continue
        start = time.perf_counter()
        sup, est, q_out = validate(q, ws, args.a, args.beta, args.conjugate)
        elapsed = time.perf_counter() - start
        print(f"{q:>8.3g} {q_out:>10.5g} {sup:>12.3e} {est:>10.1e} "
              f"{elapsed:>9.2f}")


if __name__ == "__main__":
    main()
