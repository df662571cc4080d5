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
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [r[:2] for r in rows] == [["transform-sweep", m]
                                     for m in ("pass_s", "setup_s", "peak_rss_mb")]
    for r in rows:
        assert r[-4:] == ["wins", r[-3], "of", "1"] and r[-3] in ("0", "1")
