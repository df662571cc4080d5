#!/usr/bin/env python3
"""Compare the benchmark at a parent commit and in this checkout, in
alternating pairs of runs.

  python3 scripts/bench_pairs.py --parent <ref> [--pairs N] [--seconds S]
      [--seed FIRST] [--workload NAME ...]

The parent's tree is taken from `git archive <ref>` into a temporary
directory; the change is the working tree of this checkout. Pair i runs
`bench/run.py --trace 0 --seed FIRST+i` once on each side, and the side
that runs first alternates from pair to pair. For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, and in how many pairs the change is better (k of N). A run
that is not correct, or that has failed operations, is reported, and the
exit status is then 1. Nothing under bench/ is changed.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(ref, dest):
    """Write the tree of commit ref into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def bench(root, workload, seed, seconds):
    """The result object of one timed run of bench/run.py in root."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat to run several; default: all")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    lower = {m["name"]: m["better"] == "lower" for m in manifest["end_to_end"]}

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        export(args.parent, tmp)
        roots = {"parent": Path(tmp), "change": ROOT}
        for workload in args.workload or names:
            values = {side: {m: [] for m in lower} for side in roots}
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    res = bench(roots[side], workload, seed, args.seconds)
                    if not res["correct"] or res["failed"]:
                        ok = False
                        print(f"{workload} {side} seed {seed}: correct "
                              f"{res['correct']}, {res['failed']} of "
                              f"{res['attempted']} failed")
                    for m in lower:
                        values[side][m].append(res["metrics"][m]["value"])
            for m, lower_is_better in lower.items():
                old, new = values["parent"][m], values["change"][m]
                wins = sum((b < a) if lower_is_better else (b > a)
                           for a, b in zip(old, new))
                (p1, p2, p3), (c1, c2, c3) = spread(old), spread(new)
                ratio = c2 / p2 if p2 else float("nan")
                print(f"{workload:16s} {m:12s} parent {p2:.4g} [{p1:.4g}, "
                      f"{p3:.4g}]  change {c2:.4g} [{c1:.4g}, {c3:.4g}]  "
                      f"ratio {ratio:.3f}  wins {wins} of {args.pairs}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
