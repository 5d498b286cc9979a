"""Smoke runs of the benchmark worker.

One traced round of each gated workload must find every lammu name the
benchmark calls or wraps, and must match the benchmark's own references.
Spans go to the git-ignored ``perfbench/out/``.  One round of ``reduce``,
run as a library, must repeat its work counters exactly.
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


def test_reduce_round_counters_are_pinned():
    """Round 0 of ``reduce`` at seed 2024, run as a library, repeats its
    work counters, and every op, the deep rows included, passes the
    benchmark's reference checks."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    rnd = workloads.Reduce(2024, workloads.call_table()).run_round(0)
    assert rnd.mismatches == []
    assert rnd.result()["counters"] == {
        "grammar.bytes_in": 11312,
        "reduction.steps.beta": 236,
        "reduction.steps.mu": 195,
        "failed": 0,
        "output_digest": 42533750150461,
    }
