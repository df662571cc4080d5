import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_bench_pairs_script_runs():
    # one pair on the quickest workload, with HEAD as the parent
    inside = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                            capture_output=True)
    if inside.returncode != 0:
        pytest.skip("needs a git checkout with a commit")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", "HEAD", "--pairs", "1", "--seconds", "1",
         "--workload", "transform-sweep"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    net, *table = proc.stdout.splitlines()
    assert re.fullmatch(r"net src/ lines against HEAD: [+-]\d+", net)
    rows = [line.split() for line in table]
    assert [r[:2] for r in rows] == [["transform-sweep", m]
                                     for m in ("pass_s", "setup_s", "peak_rss_mb")]
    for r in rows:
        assert r[-5:-1] == ["wins", r[-4], "of", "1"] and r[-4] in ("0", "1")
        assert r[-1] in ("better", "worse", "unresolved", "within")


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("old, new, lower, want", [
    # 10 of 10 wins, medians 0.1 apart against a parent IQR of 0.02
    ([1.0, 1.01, 0.99, 1.02, 0.98] * 2, [0.9] * 10, True, "better"),
    ([1.0, 1.01, 0.99, 1.02, 0.98] * 2, [1.1] * 10, False, "better"),
    # 8 of 10 wins is not enough
    ([1.0, 1.01, 0.99, 1.02, 0.98] * 2, [0.9] * 8 + [1.1] * 2, True, "within"),
    # 10 of 10 wins by less than the parent's IQR
    ([1.0, 1.01, 0.99, 1.02, 0.98] * 2, [v - 0.005 for v in
                                         [1.0, 1.01, 0.99, 1.02, 0.98] * 2],
     True, "within"),
    # the median 30 % worse against a 25 % bound, either direction
    ([1.0] * 10, [1.3] * 10, True, "worse"),
    ([1.0] * 10, [0.7] * 10, False, "worse"),
    ([1.0] * 10, [1.2] * 10, True, "within"),
    # a parent IQR of 0.4 against a median of 1, wider than the bound
    ([0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 1.0], [1.1] * 10, True,
     "unresolved"),
    # unless every change run beats every parent run; by less than the
    # parent's IQR that is not better
    ([0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 1.0], [0.5] * 10, True,
     "within"),
    ([0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 0.6, 1.0, 1.4, 1.0], [0.59] * 9 + [0.61],
     True, "unresolved"),
])
def test_verdict_tokens(old, new, lower, want):
    assert _bench_pairs().verdict(old, new, 0.25, lower) == want
