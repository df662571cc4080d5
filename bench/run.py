#!/usr/bin/env python3
"""Benchmark of qcoupling, measured from outside the program.

  python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md): cli-cold, transform-sweep, stochastic, emit;
`--workload all` runs the four one after another. Run from the root of a
source checkout: the package is imported from src, never installed.

A timed run (--trace 0) measures set-up time, runs one untimed warm-up
pass, then whole passes over the workload's fixed operation mix for about
--seconds seconds, and checks the outputs. A traced run (--trace 1)
reports the per-layer metrics instead (tracing.py). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# BLAS and OpenMP threads are pinned before numpy loads, here and in
# every process the benchmark starts.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads as wl  # noqa: E402

SETUP_REPEATS = 5


def measure_setup(name, seed):
    """Median wall time of fresh interpreters that import what the
    workload imports and build its inputs."""
    argv = [sys.executable, str(wl.BENCH / "run.py"), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, env=wl.child_env(), cwd=wl.ROOT)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def timed(name, seed, seconds):
    setup_s = measure_setup(name, seed)
    if name in wl.IN_PROCESS:
        importlib.import_module(wl.IMPORTS[name])
    ops = wl.BUILDERS[name](seed)
    tally = wl.Tally(ops)
    outs = wl.run_pass(ops)
    tally.add(outs)
    child_kb = _child_peak_kb(outs)
    durations = []
    start = time.perf_counter()
    # start another pass while it is expected to end within half a pass
    # of the deadline, so every run measures whole passes
    while not durations or \
            time.perf_counter() - start + durations[-1] / 2 < seconds:
        outs = None
        t0 = time.perf_counter()
        outs = wl.run_pass(ops)
        durations.append(time.perf_counter() - t0)
        tally.add(outs)
        child_kb = max(child_kb, _child_peak_kb(outs))
    peak_kb = child_kb if name not in wl.IN_PROCESS else wl.peak_rss_kb()
    tally.check(outs)
    quartiles = statistics.quantiles(durations, n=4) if len(durations) > 1 \
        else durations * 3
    print(f"{name}: {len(durations)} passes, pass_s quartiles "
          + " ".join(f"{v:.4f}" for v in quartiles), file=sys.stderr)
    return tally, {"pass_s": statistics.median(durations),
                   "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}


def _child_peak_kb(outs):
    return max((o.maxrss_kb for o in outs if isinstance(o, wl.CliRun)),
               default=0)


def run_all(args):
    """Run each workload in a process of its own, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in wl.BUILDERS:
        proc = subprocess.run(
            [sys.executable, str(wl.BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        print(f"{name}: {line}")
        res = json.loads(line)
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    return correct, attempted, failed, metrics


def declared_units(trace):
    manifest = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*wl.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (wl.SRC / "qcoupling" / "__init__.py").is_file():
        sys.exit(f"no qcoupling sources under {wl.SRC}")
    sys.path.insert(0, str(wl.SRC))

    if args.setup_probe:
        importlib.import_module(wl.IMPORTS[args.workload])
        wl.BUILDERS[args.workload](args.seed)
        return
    if args.rss_probe:
        import tracing
        print(tracing.rss_probe(args.seed))
        return
    if args.workload == "all":
        correct, attempted, failed, metrics = run_all(args)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return

    units = declared_units(args.trace)
    if args.trace:
        import tracing
        tally, values = tracing.traced(args.workload, args.seed)
    else:
        tally, values = timed(args.workload, args.seed, args.seconds)
    if set(values) != set(units):
        sys.exit(f"metrics {sorted(set(values) ^ set(units))} do not match "
                 "BENCHMARK.json")
    correct, attempted, failed = tally.summary()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    wl.WORK.mkdir(exist_ok=True)
    (wl.WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json"
     ).write_text(json.dumps(result) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
