"""The traced run: per-layer numbers from spans and call counts.

Spans are recorded from the benchmark's own files: one around every
operation a pass makes, and one around each public function that `cli`
reaches through its module (the attributes in WRAPPED are replaced for
the traced pass only and restored after it). Functions the program
imports by value are counted, not timed, with the interpreter's profiling
hook matched on their code objects; that hook slows quadrature several
times over, so counts come from a pass of their own and never share a
pass with the spans.

Every traced run measures every layer: the selected workload first, then
the other three. An in-process workload makes a warm-up pass, a traced
pass and an untraced pass; the last two give the tracing overhead.
cli-cold makes one pass, whose spans are its child processes' wall
times. The last pass of the selected workload gives its CPU time.
"""

import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import workloads as wl

# (module, attribute) pairs that cli looks up through the module
WRAPPED = [("sde", "simulate"), ("sde", "fit_qgaussian"),
           ("qdist", "sample_qgaussian"), ("qft", "qft_numeric"),
           ("datasets", "to_csv"), ("datasets", "to_json"),
           ("datasets", "figure_dataset")]
# functions counted with the profiling hook: (module, attribute)
COUNTED = {"quad": ("scipy.integrate", "quad"),
           "exp_q_complex": ("qcoupling.qcore", "exp_q_complex"),
           "c_q": ("qcoupling.qdist", "c_q")}
CLI_SUBCOMMANDS = ("eval", "seq", "dist", "transform", "figure", "selfcheck")
QFT_ROUTES = ("heavy_tail", "classical", "compact", "conjugate", "uniform",
              "alpha", "grid")
IMPORT_REPEATS = 3


class Tracer:
    """Spans kept in memory: [name, parent index, start, end, pass]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.tag = None

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, time.perf_counter(), None, self.tag])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    @contextmanager
    def wrapping(self):
        """Replace each WRAPPED module attribute by a span-recording
        wrapper for the duration of the block."""
        saved = []
        try:
            for mod_name, attr in WRAPPED:
                module = importlib.import_module(f"qcoupling.{mod_name}")
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def durations(self, name, tag, top_only=False):
        return [s[3] - s[2] for s in self.spans
                if s[0] == name and s[4] == tag
                and (s[1] is None or not top_only)]

    def self_time(self, name, tag):
        """Span time of `name` minus the time its direct children cover."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] == name and s[4] == tag:
                total += s[3] - s[2] - sum(
                    c[3] - c[2] for c in self.spans if c[1] == i)
        return total

    def dump(self, path):
        path.write_text(json.dumps(
            [dict(name=n, parent=p, start=a, end=b, workload=t)
             for n, p, a, b, t in self.spans]))


@contextmanager
def counting(names):
    """Count calls of the COUNTED functions in `names` with sys.setprofile."""
    codes = {}
    for name in names:
        mod_name, attr = COUNTED[name]
        fn = getattr(importlib.import_module(mod_name), attr, None)
        if fn is not None:
            codes[fn.__code__] = name
    counts = dict.fromkeys(names, 0)

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(hook)
    try:
        yield counts
    finally:
        sys.setprofile(None)


def _cpu():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _wall(argv):
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, env=wl.child_env(), cwd=wl.ROOT,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_metrics():
    py = sys.executable
    bare = statistics.median(_wall([py, "-c", "pass"])
                             for _ in range(IMPORT_REPEATS))
    full = statistics.median(_wall([py, "-c", "import qcoupling"])
                             for _ in range(IMPORT_REPEATS))
    proc = subprocess.run(
        [py, "-X", "importtime", "-c",
         "import sys; n = len(sys.modules); import qcoupling; "
         "print(len(sys.modules) - n)"],
        check=True, env=wl.child_env(), cwd=wl.ROOT, capture_output=True,
        text=True)
    return {"import.qcoupling_s": full - bare,
            "import.modules": int(proc.stdout.strip()),
            "import.scipy_s": _scipy_import_s(proc.stderr)}


def _scipy_import_s(report):
    """Cumulative -X importtime of the outermost scipy modules.

    The report lists each import after the imports it caused, indented
    by depth; read backwards, every module follows its parent."""
    rows = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    total_us, stack = 0, []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(s for _, s in stack):
            total_us += cumulative
        stack.append((depth, is_scipy))
    return total_us / 1e6


def rss_probe(seed):
    """In a fresh process: rise in max RSS across the first wide simulate."""
    ops = wl.stochastic(seed)
    op = next(o for o in ops if o.span == "sde.simulate_wide")
    before = wl.peak_rss_kb()
    op.run()
    after = wl.peak_rss_kb()
    return (after - before) / 1024.0


def traced(name, seed):
    """Trace every layer; returns the selected workload's tally and the
    per-layer metrics."""
    metrics = import_metrics()
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    tally = None
    kept = {}
    for w in [name] + [w for w in wl.BUILDERS if w != name]:
        ops = wl.BUILDERS[w](seed)
        t = wl.Tally(ops)
        tracer.tag = w
        if w in wl.IN_PROCESS:
            t.add(wl.run_pass(ops))
            t0 = time.perf_counter()
            with tracer.wrapping():
                t.add(wl.run_pass(ops, tracer.span))
            t1 = time.perf_counter()
            cpu0 = _cpu()
            outs = wl.run_pass(ops)
            traced_s += t1 - t0
            untraced_s += time.perf_counter() - t1
        else:
            # one span per child process; nothing in the program is wrapped
            cpu0 = _cpu()
            outs = wl.run_pass(ops, tracer.span)
        cpu = _cpu() - cpu0
        t.add(outs)
        if w == name:
            metrics["process.cpu_s"] = cpu
            t.check(outs)
            tally = t
        if w == "emit":
            metrics["emit.bytes_per_s"] = sum(
                e.path.stat().st_size for e in outs
                if isinstance(e, wl.Emitted)) / (t1 - t0)
        kept[w] = ops
        del outs

    with counting(["quad", "exp_q_complex"]) as counts:
        wl.run_pass(kept["transform-sweep"])
    metrics["quadrature.quad_calls"] = counts["quad"]
    metrics["qcore.exp_q_complex_calls"] = counts["exp_q_complex"]
    fit_op = next(o for o in kept["stochastic"] if o.span == "sde.fit")
    with counting(["c_q"]) as counts:
        fit_op.run()
    metrics["sde.fit_evals"] = counts["c_q"]

    proc = subprocess.run(
        [sys.executable, wl.BENCH / "run.py", "--rss-probe", "--workload",
         "stochastic", "--seed",
         str(seed)],
        check=True, env=wl.child_env(), cwd=wl.ROOT, capture_output=True,
        text=True)
    metrics["sde.rss_growth_mb"] = float(proc.stdout.strip().splitlines()[-1])

    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = statistics.median(
            tracer.durations(f"cli.{sub}", "cli-cold"))
    for route in QFT_ROUTES:
        metrics[f"qft.{route}_s"] = sum(
            tracer.durations(f"qft.{route}", "transform-sweep", top_only=True))
    for span in ("sde.simulate", "sde.simulate_wide", "sde.fit",
                 "qdist.sample"):
        metrics[f"{span}_s"] = sum(
            tracer.durations(span, "stochastic", top_only=True))
    path_steps = sum(e["n_paths"] * e["steps"]
                     for e in (wl.DEFAULT_ENSEMBLE, wl.WIDE_ENSEMBLE))
    metrics["sde.path_steps_per_s"] = path_steps / (
        metrics["sde.simulate_s"] + metrics["sde.simulate_wide_s"])
    metrics["cli.self_s"] = tracer.self_time("cli.run", "emit")
    for fmt in ("csv", "json"):
        metrics[f"datasets.to_{fmt}_s"] = sum(
            tracer.durations(f"datasets.to_{fmt}", "emit"))
    metrics["trace.overhead_pct"] = \
        100.0 * (traced_s - untraced_s) / untraced_s

    wl.WORK.mkdir(exist_ok=True)
    tracer.dump(wl.WORK / f"trace-{name}-{seed}.json")
    return tally, metrics
