"""Smoke runs of the benchmark worker.

One traced round of each gated workload must find every lammu name the
benchmark calls or wraps, and must match the benchmark's own references.
Spans go to the git-ignored ``perfbench/out/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["certs", "reduce"])
def test_one_traced_round_matches_references(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", workload, "--seed", "2024", "--rounds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert [r["mismatches"] for r in out["rounds"]] == [[]]
